// Property tests for the spatial-grid Medium: the grid is an index, not
// a semantics change, so every query must be byte-identical to the
// brute-force linear scan (the oracle kept behind use_grid=false) across
// randomized node sets, ranges, filters, and SetPosition/Unregister
// churn. Also pins the NodesWithin ordering contract (nearest first,
// distance ties by ascending NodeId) and the cell-size derivation.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "common/rng.hpp"
#include "net/medium.hpp"

namespace contory::net {
namespace {

/// Applies the same mutation to both mediums; node ids stay in lockstep
/// because Register assigns them densely in call order.
struct MirroredMediums {
  MirroredMediums() : oracle(MediumOptions{/*use_grid=*/false, 0.0}) {}

  NodeId Register(const std::string& name, Position pos) {
    const NodeId a = grid.Register(name, pos);
    const NodeId b = oracle.Register(name, pos);
    EXPECT_EQ(a, b);
    live.insert(a);
    return a;
  }
  void Unregister(NodeId id) {
    grid.Unregister(id);
    oracle.Unregister(id);
    live.erase(id);
  }
  void SetPosition(NodeId id, Position pos) {
    EXPECT_EQ(grid.SetPosition(id, pos).ok(),
              oracle.SetPosition(id, pos).ok());
  }

  Medium grid;
  Medium oracle;
  std::unordered_set<NodeId> live;
};

Position RandomPos(Rng& rng, double side) {
  return Position{rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
}

class GridOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridOracleTest, ChurnedQueriesAreByteIdentical) {
  Rng rng{GetParam()};
  MirroredMediums m;
  const double side = 500.0;

  // Mixed node population, including exact-duplicate positions so the
  // NodeId tie-break is exercised, and a clustered blob in one cell.
  std::vector<NodeId> ids;
  for (int i = 0; i < 150; ++i) {
    Position pos = RandomPos(rng, side);
    if (i % 10 == 0) pos = Position{100.0, 100.0};       // exact ties
    if (i % 7 == 0) pos = Position{250.0 + (i % 3), 250.0};  // dense cell
    ids.push_back(m.Register("n" + std::to_string(i), pos));
  }
  m.grid.NoteRadioRange(10.0);   // BT-ish
  m.grid.NoteRadioRange(100.0);  // WiFi-ish -> rebuild at sqrt(10*100)
  m.oracle.NoteRadioRange(10.0);
  m.oracle.NoteRadioRange(100.0);

  const std::vector<double> ranges = {0.0, 3.0, 25.0, 100.0, 400.0, 1e9};
  for (int round = 0; round < 40; ++round) {
    // Churn: move a third (mix of small same-cell nudges and jumps),
    // unregister a node, register a replacement.
    for (const NodeId id : ids) {
      if (!m.live.contains(id) || !rng.Bernoulli(0.3)) continue;
      if (rng.Bernoulli(0.5)) {
        const auto pos = m.grid.GetPosition(id);
        ASSERT_TRUE(pos.ok());
        m.SetPosition(id, Position{pos->x + rng.Uniform(-1.0, 1.0),
                                   pos->y + rng.Uniform(-1.0, 1.0)});
      } else {
        m.SetPosition(id, RandomPos(rng, side));
      }
    }
    if (!m.live.empty() && rng.Bernoulli(0.5)) {
      const auto victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
      m.Unregister(ids[victim]);
    }
    if (rng.Bernoulli(0.5)) {
      ids.push_back(m.Register("r" + std::to_string(round),
                               RandomPos(rng, side)));
    }

    // Every live node against every range, unfiltered and filtered.
    for (const NodeId center : m.live) {
      for (const double range : ranges) {
        ASSERT_EQ(m.grid.NodesWithin(center, range),
                  m.oracle.NodesWithin(center, range))
            << "center " << center << " range " << range;
        const auto filter = [](NodeId n) { return n % 2 == 0; };
        ASSERT_EQ(m.grid.NodesWithin(center, range, filter),
                  m.oracle.NodesWithin(center, range, filter));
      }
    }
    // InRange / DistanceBetween parity over sampled pairs (including a
    // dead node to hit the error path).
    for (int k = 0; k < 50; ++k) {
      const auto pick = [&] {
        return ids[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
      };
      const NodeId a = pick();
      const NodeId b = pick();
      EXPECT_EQ(m.grid.InRange(a, b, 50.0), m.oracle.InRange(a, b, 50.0));
      const auto da = m.grid.DistanceBetween(a, b);
      const auto db = m.oracle.DistanceBetween(a, b);
      ASSERT_EQ(da.ok(), db.ok());
      if (da.ok()) {
        EXPECT_EQ(*da, *db);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridOracleTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

TEST(MediumGridTest, TieBreakIsAscendingNodeId) {
  Medium medium;
  const NodeId center = medium.Register("c", {0, 0});
  // Four nodes exactly 10 m away, registered out of order.
  const NodeId n1 = medium.Register("e", {10, 0});
  const NodeId n2 = medium.Register("w", {-10, 0});
  const NodeId n3 = medium.Register("n", {0, 10});
  const NodeId n4 = medium.Register("s", {0, -10});
  const NodeId near = medium.Register("near", {1, 0});
  EXPECT_EQ(medium.NodesWithin(center, 10.0),
            (std::vector<NodeId>{near, n1, n2, n3, n4}));
}

TEST(MediumGridTest, FilterOnlySeesInRangeNodes) {
  Medium medium;
  const NodeId center = medium.Register("c", {0, 0});
  medium.Register("in", {5, 0});
  medium.Register("out", {500, 0});
  std::vector<NodeId> consulted;
  (void)medium.NodesWithin(center, 10.0, [&](NodeId n) {
    consulted.push_back(n);
    return true;
  });
  ASSERT_EQ(consulted.size(), 1u);
  EXPECT_EQ(medium.GetName(consulted[0]).value_or(""), "in");
}

TEST(MediumGridTest, SetPositionMigratesCells) {
  Medium medium(MediumOptions{true, 50.0});
  const NodeId center = medium.Register("c", {0, 0});
  const NodeId mover = medium.Register("m", {1000, 1000});
  EXPECT_TRUE(medium.NodesWithin(center, 20.0).empty());
  ASSERT_TRUE(medium.SetPosition(mover, {10, 0}).ok());
  EXPECT_EQ(medium.NodesWithin(center, 20.0), std::vector<NodeId>{mover});
  // Same-cell nudge keeps the index coherent too.
  ASSERT_TRUE(medium.SetPosition(mover, {12, 0}).ok());
  const auto d = medium.DistanceBetween(center, mover);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 12.0);
  EXPECT_EQ(medium.NodesWithin(center, 20.0), std::vector<NodeId>{mover});
}

TEST(MediumGridTest, CellSizeDerivesFromNotedRanges) {
  Medium medium;
  EXPECT_DOUBLE_EQ(medium.cell_size_m(), 100.0);  // default before hints
  medium.NoteRadioRange(10.0);
  EXPECT_DOUBLE_EQ(medium.cell_size_m(), 10.0);
  medium.NoteRadioRange(100.0);
  EXPECT_DOUBLE_EQ(medium.cell_size_m(), std::sqrt(10.0 * 100.0));
  // Fixed size ignores hints entirely.
  Medium fixed(MediumOptions{true, 25.0});
  fixed.NoteRadioRange(1000.0);
  EXPECT_DOUBLE_EQ(fixed.cell_size_m(), 25.0);
}

TEST(MediumGridTest, RebuildOnResizePreservesResults) {
  Medium grid;
  Medium oracle(MediumOptions{false, 0.0});
  Rng rng{5};
  std::vector<NodeId> ids;
  for (int i = 0; i < 64; ++i) {
    const Position pos{rng.Uniform(0, 300), rng.Uniform(0, 300)};
    ids.push_back(grid.Register("n", pos));
    oracle.Register("n", pos);
  }
  grid.NoteRadioRange(5.0);  // shrink cells -> full rebuild
  for (const NodeId id : ids) {
    ASSERT_EQ(grid.NodesWithin(id, 40.0), oracle.NodesWithin(id, 40.0));
  }
}

TEST(MediumGridTest, ExtremeCoordinatesClampSafely) {
  Medium grid;
  Medium oracle(MediumOptions{false, 0.0});
  const Position far{1e13, -1e13};
  const Position near{1e13 - 5.0, -1e13};
  for (Medium* m : {&grid, &oracle}) {
    m->Register("far", far);
    m->Register("near", near);
    m->Register("origin", {0, 0});
  }
  for (const NodeId center : grid.AllNodes()) {
    EXPECT_EQ(grid.NodesWithin(center, 10.0),
              oracle.NodesWithin(center, 10.0));
    EXPECT_EQ(grid.NodesWithin(center, 1e20),
              oracle.NodesWithin(center, 1e20));
  }
}

TEST(MediumGridTest, RuntimeToggleMatchesItself) {
  Medium medium;
  Rng rng{11};
  std::vector<NodeId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(
        medium.Register("n", {rng.Uniform(0, 200), rng.Uniform(0, 200)}));
  }
  for (const NodeId center : ids) {
    medium.set_use_grid(true);
    const auto with_grid = medium.NodesWithin(center, 60.0);
    medium.set_use_grid(false);
    EXPECT_EQ(medium.NodesWithin(center, 60.0), with_grid);
    medium.set_use_grid(true);
  }
}

TEST(MediumGridTest, OccupancyIntrospection) {
  Medium medium(MediumOptions{true, 100.0});
  EXPECT_EQ(medium.occupied_cells(), 0u);
  EXPECT_DOUBLE_EQ(medium.mean_cell_occupancy(), 0.0);
  medium.Register("a", {10, 10});
  medium.Register("b", {20, 20});    // same cell
  medium.Register("c", {550, 550});  // different cell
  EXPECT_EQ(medium.occupied_cells(), 2u);
  EXPECT_DOUBLE_EQ(medium.mean_cell_occupancy(), 1.5);
  const NodeId d = medium.Register("d", {560, 560});
  medium.Unregister(d);
  EXPECT_EQ(medium.occupied_cells(), 2u);
}

/// Checks the occupancy gauges against counts recomputed from positions,
/// and every live node's queries against the oracle, both at WiFi range
/// and at a range wide enough to take the walk-all-cells fallback.
void ExpectGridCoherent(const MirroredMediums& m, double cell_size) {
  std::unordered_set<std::int64_t> cells;
  for (const NodeId id : m.live) {
    const Position pos = *m.grid.GetPosition(id);
    const auto cx = static_cast<std::int64_t>(std::floor(pos.x / cell_size));
    const auto cy = static_cast<std::int64_t>(std::floor(pos.y / cell_size));
    cells.insert(cx * 1'000'003 + cy);
  }
  EXPECT_EQ(m.grid.node_count(), m.live.size());
  EXPECT_EQ(m.grid.occupied_cells(), cells.size());
  EXPECT_DOUBLE_EQ(m.grid.mean_cell_occupancy(),
                   cells.empty() ? 0.0
                                 : static_cast<double>(m.live.size()) /
                                       static_cast<double>(cells.size()));
  for (const NodeId center : m.live) {
    EXPECT_EQ(m.grid.NodesWithin(center, 100.0),
              m.oracle.NodesWithin(center, 100.0))
        << "center " << center;
    EXPECT_EQ(m.grid.NodesWithin(center, 1e9),
              m.oracle.NodesWithin(center, 1e9))
        << "center " << center;
  }
}

TEST(MediumGridTest, RetainedCellsKeepCountsAndQueriesExact) {
  // Cells that empty out stay allocated for reuse; they must never show
  // up in the occupancy gauges or change a query result.
  const double cell = 100.0;
  MirroredMediums m;
  m.grid = Medium(MediumOptions{true, cell});
  m.oracle = Medium(MediumOptions{false, cell});
  const NodeId a = m.Register("a", {10, 10});
  const NodeId b = m.Register("b", {20, 20});
  const NodeId c = m.Register("c", {250, 50});
  ExpectGridCoherent(m, cell);

  // Drive both residents out of the first cell, leaving it empty...
  m.SetPosition(a, {450, 450});
  m.SetPosition(b, {260, 60});
  ExpectGridCoherent(m, cell);
  // ...and back in again: the retained cell is reused.
  m.SetPosition(a, {30, 30});
  m.SetPosition(b, {40, 40});
  ExpectGridCoherent(m, cell);
  // Same-cell nudges after the round trip.
  m.SetPosition(a, {31, 32});
  ExpectGridCoherent(m, cell);

  // Unregister the last node of a cell, then register into it again.
  m.Unregister(c);
  ExpectGridCoherent(m, cell);
  const NodeId d = m.Register("d", {255, 55});
  EXPECT_GT(d, c);  // ids are never reused
  ExpectGridCoherent(m, cell);

  // Empty the whole medium, then repopulate one retained cell.
  m.Unregister(a);
  m.Unregister(b);
  m.Unregister(d);
  EXPECT_EQ(m.grid.occupied_cells(), 0u);
  EXPECT_DOUBLE_EQ(m.grid.mean_cell_occupancy(), 0.0);
  EXPECT_TRUE(m.grid.AllNodes().empty());
  const NodeId e = m.Register("e", {470, 470});
  const NodeId f = m.Register("f", {480, 470});
  ExpectGridCoherent(m, cell);
  EXPECT_EQ(m.grid.AllNodes(), (std::vector<NodeId>{e, f}));
}

TEST(MediumGridTest, UnregisterSwapKeepsBackPointersCoherent) {
  // Three nodes in one cell; removing the middle one swap-moves the tail
  // entry. A follow-up move of the swapped node must not corrupt the
  // index (this is the slot back-pointer fix-up path).
  Medium medium(MediumOptions{true, 1000.0});
  const NodeId center = medium.Register("c", {0, 0});
  const NodeId a = medium.Register("a", {1, 0});
  const NodeId b = medium.Register("b", {2, 0});
  medium.Unregister(a);
  ASSERT_TRUE(medium.SetPosition(b, {5000, 5000}).ok());  // cross-cell
  EXPECT_TRUE(medium.NodesWithin(center, 10.0).empty());
  ASSERT_TRUE(medium.SetPosition(b, {3, 0}).ok());
  EXPECT_EQ(medium.NodesWithin(center, 10.0), std::vector<NodeId>{b});
}

}  // namespace
}  // namespace contory::net
