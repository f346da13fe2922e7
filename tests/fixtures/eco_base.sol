# Stub base solution for the wire-parity test: sadp_route --connect
# --delta sends this text inline, and the test listener never parses it.
