#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "data/query_workload.hpp"
#include "ivf/cluster_stats.hpp"
#include "ivf/ivf_index.hpp"

namespace upanns {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("upanns_ser_") + name))
      .string();
}

struct Fixture {
  data::Dataset base = data::generate_synthetic(data::sift1b_like(4000, 71));
  ivf::IvfIndex index = build();

  ivf::IvfIndex build() {
    ivf::IvfBuildOptions opts;
    opts.n_clusters = 16;
    opts.pq_m = 16;
    opts.coarse_iters = 5;
    opts.pq_iters = 4;
    return ivf::IvfIndex::build(base, opts);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(PqSerialize, RoundTrip) {
  const auto& pq = fixture().index.pq();
  std::stringstream ss;
  pq.save(ss);
  const auto back = quant::ProductQuantizer::load_from(ss);
  EXPECT_EQ(back.dim(), pq.dim());
  EXPECT_EQ(back.m(), pq.m());
  EXPECT_EQ(back.dsub(), pq.dsub());
  ASSERT_EQ(back.codebooks().size(), pq.codebooks().size());
  for (std::size_t i = 0; i < pq.codebooks().size(); ++i) {
    EXPECT_EQ(back.codebooks()[i], pq.codebooks()[i]);
  }
}

TEST(PqSerialize, BadMagicRejected) {
  std::stringstream ss;
  ss << "garbage-bytes-here";
  EXPECT_THROW(quant::ProductQuantizer::load_from(ss), std::runtime_error);
}

TEST(IvfSerialize, RoundTripPreservesSearchResults) {
  auto& f = fixture();
  const std::string path = temp_path("index.bin");
  f.index.save(path);
  const ivf::IvfIndex back = ivf::IvfIndex::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.dim(), f.index.dim());
  EXPECT_EQ(back.n_clusters(), f.index.n_clusters());
  EXPECT_EQ(back.n_points(), f.index.n_points());

  // Identical cluster filtering and list contents.
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(back.filter_clusters(f.base.row(q), 4),
              f.index.filter_clusters(f.base.row(q), 4));
  }
  for (std::size_t c = 0; c < back.n_clusters(); ++c) {
    EXPECT_EQ(back.list(c).ids, f.index.list(c).ids);
    EXPECT_EQ(back.list(c).codes, f.index.list(c).codes);
  }
}

// Mutate a copy of the fixture index: a few inserts plus enough removes to
// leave tombstones behind.
ivf::IvfIndex mutated_copy() {
  auto& f = fixture();
  ivf::IvfIndex idx = f.index;
  common::Rng rng(17);
  std::vector<std::uint32_t> ids;
  std::vector<float> flat;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const float* row = f.base.row(rng.below(f.base.n));
    ids.push_back(1'000'000 + i);
    for (std::size_t d = 0; d < f.base.dim; ++d) {
      flat.push_back(row[d] + rng.uniform(-0.05f, 0.05f));
    }
  }
  idx.insert(ids, flat);
  for (int i = 0; i < 60; ++i) {
    idx.remove(static_cast<std::uint32_t>(rng.below(f.base.n)));
  }
  return idx;
}

std::uint64_t total_tombstones(const ivf::IvfIndex& idx) {
  std::uint64_t n = 0;
  for (const ivf::InvertedList& list : idx.lists()) n += list.n_tombstones;
  return n;
}

TEST(IvfSerialize, V2RoundTripPreservesMutationState) {
  const ivf::IvfIndex idx = mutated_copy();
  ASSERT_GT(total_tombstones(idx), 0u);

  const std::string path = temp_path("v2.bin");
  idx.save(path);
  const ivf::IvfIndex back = ivf::IvfIndex::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.n_points(), idx.n_points());
  EXPECT_EQ(total_tombstones(back), total_tombstones(idx));
  for (std::size_t c = 0; c < idx.n_clusters(); ++c) {
    const ivf::InvertedList& a = idx.list(c);
    const ivf::InvertedList& b = back.list(c);
    EXPECT_EQ(b.ids, a.ids);
    EXPECT_EQ(b.codes, a.codes);
    EXPECT_EQ(b.tombstones, a.tombstones);
    EXPECT_EQ(b.n_tombstones, a.n_tombstones);
    EXPECT_EQ(b.generation, a.generation);
    EXPECT_EQ(b.compact_epoch, a.compact_epoch);
  }
  // The loaded index keeps serving mutations: removing a survivor works,
  // removing an already-dead id does not.
  ivf::IvfIndex again = back;
  const std::uint32_t survivor = [&] {
    for (const ivf::InvertedList& list : again.lists()) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (!list.is_dead(i)) return list.ids[i];
      }
    }
    return 0u;
  }();
  EXPECT_TRUE(again.remove(survivor));
  EXPECT_FALSE(again.remove(survivor));
}

/// Write `idx` in the pre-mutability v1 layout, which save() no longer
/// writes: the golden header (magic "UIV1" and version 1, both
/// little-endian u32), dims, centroids, the PQ block, then ids and codes
/// per list, arrays prefixed by their u64 length.
void write_v1(const ivf::IvfIndex& idx, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  const unsigned char header[8] = {0x31, 0x56, 0x49, 0x55, 0x01, 0x00,
                                   0x00, 0x00};
  os.write(reinterpret_cast<const char*>(header), sizeof(header));
  const auto u64 = [&](std::uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto array = [&](const void* data, std::size_t n, std::size_t size) {
    u64(n);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n * size));
  };
  u64(idx.dim());
  u64(idx.n_clusters());
  u64(idx.n_points());
  array(idx.centroids().data(), idx.centroids().size(), sizeof(float));
  idx.pq().save(os);
  for (const ivf::InvertedList& list : idx.lists()) {
    array(list.ids.data(), list.ids.size(), sizeof(std::uint32_t));
    array(list.codes.data(), list.codes.size(), 1);
  }
}

TEST(IvfSerialize, V1GoldenHeaderAndBackCompat) {
  auto& f = fixture();
  const std::string path = temp_path("v1.bin");
  write_v1(f.index, path);

  // A v1 file loads into an index equal to the original.
  const ivf::IvfIndex back = ivf::IvfIndex::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.n_points(), f.index.n_points());
  for (std::size_t c = 0; c < back.n_clusters(); ++c) {
    EXPECT_EQ(back.list(c).ids, f.index.list(c).ids);
    EXPECT_EQ(back.list(c).codes, f.index.list(c).codes);
    EXPECT_FALSE(back.list(c).has_tombstones());
  }
}

TEST(IvfSerialize, V2GoldenHeader) {
  const ivf::IvfIndex idx = mutated_copy();
  const std::string path = temp_path("v2hdr.bin");
  idx.save(path);
  std::ifstream is(path, std::ios::binary);
  unsigned char header[8] = {};
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  is.close();
  std::remove(path.c_str());
  const unsigned char want[8] = {0x31, 0x56, 0x49, 0x55, 0x02, 0x00,
                                 0x00, 0x00};
  EXPECT_EQ(std::memcmp(header, want, sizeof(want)), 0);
}

TEST(IvfSerialize, MissingFileThrows) {
  EXPECT_THROW(ivf::IvfIndex::load(temp_path("nonexistent.bin")),
               std::runtime_error);
}

TEST(IvfSerialize, TruncatedFileThrows) {
  auto& f = fixture();
  const std::string path = temp_path("trunc.bin");
  f.index.save(path);
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(ivf::IvfIndex::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IvfSerialize, CorruptedMagicThrows) {
  auto& f = fixture();
  const std::string path = temp_path("magic.bin");
  f.index.save(path);
  {
    std::fstream fs(path, std::ios::in | std::ios::out | std::ios::binary);
    fs.seekp(0);
    fs.write("XXXX", 4);
  }
  EXPECT_THROW(ivf::IvfIndex::load(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace upanns
