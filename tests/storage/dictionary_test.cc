#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "common/str_util.h"
#include "index/builder.h"
#include "lakegen/join_lake.h"

namespace blend {
namespace {

TEST(DictionaryTest, InternAssignsDenseIds) {
  Dictionary d;
  EXPECT_EQ(d.Intern("a"), 0u);
  EXPECT_EQ(d.Intern("b"), 1u);
  EXPECT_EQ(d.Intern("a"), 0u);  // idempotent
  EXPECT_EQ(d.Size(), 2u);
}

TEST(DictionaryTest, FindWithoutIntern) {
  Dictionary d;
  d.Intern("x");
  EXPECT_EQ(d.Find("x"), 0u);
  EXPECT_EQ(d.Find("y"), kInvalidCellId);
  EXPECT_EQ(d.Size(), 1u);  // Find must not intern
}

TEST(DictionaryTest, ValueRoundTrip) {
  Dictionary d;
  CellId id = d.Intern("token");
  EXPECT_EQ(d.Value(id), "token");
}

TEST(DictionaryTest, StableAcrossManyInserts) {
  Dictionary d;
  std::vector<CellId> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(d.Intern("tok" + std::to_string(i)));
  // Growth rehashes the table and grows the blob; old ids keep resolving.
  for (int i = 0; i < 5000; i += 97) {
    EXPECT_EQ(d.Value(ids[static_cast<size_t>(i)]), "tok" + std::to_string(i));
    EXPECT_EQ(d.Find("tok" + std::to_string(i)), ids[static_cast<size_t>(i)]);
  }
}

TEST(DictionaryTest, ApproxBytesGrows) {
  Dictionary d;
  size_t empty = d.ApproxBytes();
  for (int i = 0; i < 100; ++i) d.Intern("value" + std::to_string(i));
  EXPECT_GT(d.ApproxBytes(), empty);
}

/// A batched probe must agree with Find element for element.
void ExpectBatchMatchesFind(const Dictionary& d,
                            const std::vector<std::string>& values) {
  std::vector<std::string_view> views(values.begin(), values.end());
  std::vector<CellId> got(views.size(), 12345);
  d.FindBatch(views, got.data());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(got[i], d.Find(values[i])) << "'" << values[i] << "'";
  }
}

TEST(DictionaryTest, FindBatchAgreesWithFind) {
  Dictionary d;
  std::vector<std::string> probes;
  for (int i = 0; i < 300; ++i) {
    d.Intern("present" + std::to_string(i));
    probes.push_back("present" + std::to_string(i));
    probes.push_back("absent" + std::to_string(i));
  }
  probes.push_back("");
  probes.push_back("present7");  // duplicates resolve independently
  ExpectBatchMatchesFind(d, probes);
  ExpectBatchMatchesFind(d, {});

  // The empty string is a value like any other once interned.
  const CellId empty = d.Intern("");
  ExpectBatchMatchesFind(d, {"", "present0", ""});
  EXPECT_EQ(d.Find(""), empty);
}

TEST(DictionaryTest, FindBatchWalksSharedProbeChains) {
  // 100 base values plus 4 colliding ones keep the table at 256 slots
  // (>= 2n+1 for n = 104). Eight values with one home slot form a chain:
  // four interned, four absent probes that must walk past all of them.
  constexpr size_t kSlots = 256;
  Dictionary d;
  for (int i = 0; i < 100; ++i) d.Intern("base" + std::to_string(i));
  std::vector<std::string> chain;
  const uint64_t home = Fnv1a64("chain0") & (kSlots - 1);
  for (int i = 0; chain.size() < 8; ++i) {
    std::string v = "chain" + std::to_string(i);
    if ((Fnv1a64(v) & (kSlots - 1)) == home) chain.push_back(std::move(v));
  }
  for (size_t i = 0; i < 4; ++i) d.Intern(chain[i]);
  ASSERT_EQ(d.Size(), 104u);
  size_t blob = 0;
  for (CellId id = 0; id < d.Size(); ++id) blob += d.Value(id).size();
  ASSERT_EQ(d.ApproxBytes(), 105 * sizeof(uint64_t) + blob + kSlots * sizeof(CellId));
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(d.Find(chain[i]), 100 + i);
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(d.Find(chain[i]), kInvalidCellId);
  ExpectBatchMatchesFind(d, chain);
  std::vector<std::string> reversed(chain.rbegin(), chain.rend());
  ExpectBatchMatchesFind(d, reversed);
}

TEST(DictionaryTest, IdsFollowFirstAppearanceOnALakeSerialAndSharded) {
  // The builder interns normalized cells in table, row, column order; the
  // sharded build merges per-shard dictionaries shard by shard. Both must
  // assign exactly the ids a single first-appearance pass does.
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 40;
  spec.num_domains = 5;
  spec.domain_vocab = 200;
  spec.seed = 23;
  const DataLake lake = lakegen::MakeJoinLake(spec);
  std::vector<std::string> expect;
  std::unordered_map<std::string, CellId> seen;
  for (TableId t = 0; t < static_cast<TableId>(lake.NumTables()); ++t) {
    const Table& table = lake.table(t);
    for (size_t r = 0; r < table.NumRows(); ++r) {
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        std::string v = NormalizeCell(table.At(r, c));
        if (v.empty()) continue;
        if (seen.emplace(v, static_cast<CellId>(expect.size())).second) {
          expect.push_back(std::move(v));
        }
      }
    }
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IndexBuildOptions opts;
    opts.num_threads = threads;
    const IndexBundle bundle = IndexBuilder(opts).Build(lake);
    const Dictionary& d = bundle.dictionary();
    ASSERT_EQ(d.Size(), expect.size());
    for (CellId id = 0; id < static_cast<CellId>(expect.size()); ++id) {
      ASSERT_EQ(d.Value(id), expect[id]) << "id " << id;
      ASSERT_EQ(d.Find(expect[id]), id) << "id " << id;
    }
    ExpectBatchMatchesFind(d, expect);
  }
}

}  // namespace
}  // namespace blend
