// Property tests of the forbidden-via-pattern machinery (paper Section II-D).
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "via/fvp.hpp"
#include "via/via_db.hpp"

namespace sadp::via {
namespace {

// The paper's four classification rules must agree with ground-truth
// 3-colorability on every one of the 512 possible 3x3 via patterns.
class FvpAllPatterns : public ::testing::TestWithParam<int> {};

TEST_P(FvpAllPatterns, PaperRulesMatchBruteForce) {
  const auto mask = static_cast<WindowMask>(GetParam());
  EXPECT_EQ(is_fvp_by_paper_rules(mask), !window_three_colorable_bruteforce(mask))
      << "mask=" << GetParam();
}

TEST_P(FvpAllPatterns, LookupTableMatchesBruteForce) {
  const auto mask = static_cast<WindowMask>(GetParam());
  EXPECT_EQ(is_fvp(mask), !window_three_colorable_bruteforce(mask));
}

TEST_P(FvpAllPatterns, ChromaticNumberConsistent) {
  const auto mask = static_cast<WindowMask>(GetParam());
  const int chi = window_chromatic_number(mask);
  EXPECT_EQ(is_fvp(mask), chi > 3);
  EXPECT_LE(chi, std::popcount(static_cast<unsigned>(mask)));
}

INSTANTIATE_TEST_SUITE_P(All512, FvpAllPatterns, ::testing::Range(0, 512));

TEST(FvpRules, SixOrMoreViasAlwaysFvp) {
  for (int mask = 0; mask < 512; ++mask) {
    if (std::popcount(static_cast<unsigned>(mask)) >= 6) {
      EXPECT_TRUE(is_fvp(static_cast<WindowMask>(mask))) << mask;
    }
  }
}

TEST(FvpRules, ThreeOrFewerViasNeverFvp) {
  for (int mask = 0; mask < 512; ++mask) {
    if (std::popcount(static_cast<unsigned>(mask)) <= 3) {
      EXPECT_FALSE(is_fvp(static_cast<WindowMask>(mask))) << mask;
    }
  }
}

// Adding vias never makes a window 3-colorable again.  The exact DVI bound
// rests on this: a location that would complete an FVP stays blocked as
// more vias are inserted.
TEST(FvpRules, EverySupersetOfAnFvpIsAnFvp) {
  for (int mask = 0; mask < 512; ++mask) {
    if (!is_fvp(static_cast<WindowMask>(mask))) continue;
    for (int super = mask; super < 512; super = (super + 1) | mask) {
      EXPECT_TRUE(is_fvp(static_cast<WindowMask>(super))) << mask << " " << super;
    }
  }
}

TEST(FvpRules, FourCornersPlusCenterIsColorable) {
  // Fig. 7(a)-style: 4 corners + center is the only 5-via non-FVP family.
  WindowMask mask = 0;
  mask |= WindowMask{1} << window_bit(0, 0);
  mask |= WindowMask{1} << window_bit(2, 0);
  mask |= WindowMask{1} << window_bit(0, 2);
  mask |= WindowMask{1} << window_bit(2, 2);
  mask |= WindowMask{1} << window_bit(1, 1);
  EXPECT_FALSE(is_fvp(mask));
}

TEST(FvpRules, FiveViasOffCornerIsFvp) {
  // Fig. 7(b)-style: move one corner via to an edge -> FVP.
  WindowMask mask = 0;
  mask |= WindowMask{1} << window_bit(0, 0);
  mask |= WindowMask{1} << window_bit(2, 0);
  mask |= WindowMask{1} << window_bit(0, 2);
  mask |= WindowMask{1} << window_bit(1, 2);  // not a corner
  mask |= WindowMask{1} << window_bit(1, 1);
  EXPECT_TRUE(is_fvp(mask));
}

TEST(FvpConflict, DiagonalCornersDoNotConflict) {
  EXPECT_FALSE(vias_conflict({0, 0}, {2, 2}));
  EXPECT_FALSE(vias_conflict({0, 2}, {2, 0}));
}

TEST(FvpConflict, EverythingElseInWindowConflicts) {
  for (int dx = -2; dx <= 2; ++dx) {
    for (int dy = -2; dy <= 2; ++dy) {
      if (dx == 0 && dy == 0) continue;
      const bool diagonal_corner = std::abs(dx) == 2 && std::abs(dy) == 2;
      EXPECT_EQ(vias_conflict({5, 5}, {5 + dx, 5 + dy}), !diagonal_corner)
          << dx << "," << dy;
    }
  }
}

TEST(FvpConflict, OutsideWindowNeverConflicts) {
  EXPECT_FALSE(vias_conflict({0, 0}, {3, 0}));
  EXPECT_FALSE(vias_conflict({0, 0}, {0, 3}));
  EXPECT_FALSE(vias_conflict({0, 0}, {3, 3}));
}

// The one conflict neighbourhood is the filtered 5x5 loop it replaced, in
// the same dy-then-dx order: adjacency lists and cost deposits follow it.
TEST(FvpConflict, ConflictOffsetsAreTheFilteredWindowInScanOrder) {
  std::vector<grid::Point> scanned;
  for (int dy = -2; dy <= 2; ++dy) {
    for (int dx = -2; dx <= 2; ++dx) {
      if (vias_conflict({0, 0}, {dx, dy})) scanned.push_back({dx, dy});
    }
  }
  EXPECT_EQ(std::vector<grid::Point>(kConflictOffsets.begin(), kConflictOffsets.end()),
            scanned);
}

// --- ViaDb-level FVP queries -------------------------------------------------

TEST(ViaDb, WouldCreateFvpDetectsK4) {
  ViaDb db(10, 10, 1);
  db.add(1, {4, 4});
  db.add(1, {5, 4});
  db.add(1, {4, 5});
  // Three mutually conflicting vias are fine; the fourth (no diagonal
  // corner relief) makes a K4.
  EXPECT_FALSE(db.in_fvp(1, {4, 4}));
  EXPECT_TRUE(db.would_create_fvp(1, {5, 5}));
  // A location far away is unaffected.
  EXPECT_FALSE(db.would_create_fvp(1, {8, 8}));
}

TEST(ViaDb, ScanFindsInsertedFvp) {
  ViaDb db(12, 12, 2);
  EXPECT_TRUE(db.scan_all_fvps().empty());
  // Build a 2x2 block plus center-adjacent via: 5 vias, not corner-arranged.
  db.add(2, {5, 5});
  db.add(2, {6, 5});
  db.add(2, {5, 6});
  db.add(2, {6, 6});
  EXPECT_FALSE(db.scan_fvps(2).empty());  // K4 already
  EXPECT_TRUE(db.scan_fvps(1).empty());   // other layer untouched
}

TEST(ViaDb, RemoveRestoresCleanliness) {
  ViaDb db(12, 12, 1);
  db.add(1, {5, 5});
  db.add(1, {6, 5});
  db.add(1, {5, 6});
  db.add(1, {6, 6});
  EXPECT_FALSE(db.scan_fvps(1).empty());
  db.remove(1, {6, 6});
  EXPECT_TRUE(db.scan_fvps(1).empty());
}

TEST(ViaDb, ConflictCountMatchesDefinition) {
  ViaDb db(12, 12, 1);
  db.add(1, {5, 5});
  db.add(1, {7, 7});  // diagonal corner of 5,5: no conflict
  db.add(1, {6, 5});  // conflicts with 5,5 and 7,7
  EXPECT_EQ(db.conflict_count(1, {5, 5}), 1);
  EXPECT_EQ(db.conflict_count(1, {6, 5}), 2);
  EXPECT_EQ(db.conflict_count(1, {7, 7}), 1);
  // An empty location counts surrounding vias.
  EXPECT_EQ(db.conflict_count(1, {6, 6}), 3);
}

TEST(ViaDb, BoundaryWindowsAreHandled) {
  ViaDb db(4, 4, 1);
  db.add(1, {0, 0});
  db.add(1, {1, 0});
  db.add(1, {0, 1});
  EXPECT_TRUE(db.would_create_fvp(1, {1, 1}));
  EXPECT_TRUE(db.scan_fvps(1).empty());
}

TEST(ViaDb, RefcountedOccupancy) {
  ViaDb db(4, 4, 1);
  db.add(1, {2, 2});
  db.add(1, {2, 2});
  db.remove(1, {2, 2});
  EXPECT_TRUE(db.has(1, {2, 2}));
  db.remove(1, {2, 2});
  EXPECT_FALSE(db.has(1, {2, 2}));
}

}  // namespace
}  // namespace sadp::via
