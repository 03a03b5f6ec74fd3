// Binary persistence for the product quantizer and the IVF index.
// Format: little-endian, magic + version header, then plain scalar fields
// and length-prefixed arrays. No attempt at cross-endian portability — the
// target is checkpoint/restore on one deployment, like Faiss's native files.
#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "ivf/ivf_index.hpp"
#include "quant/pq.hpp"

namespace upanns {

namespace {

constexpr std::uint32_t kPqMagic = 0x55505131;   // "UPQ1"
constexpr std::uint32_t kIvfMagic = 0x55495631;  // "UIV1"
constexpr std::uint32_t kVersion = 1;
// IVF file versions. v1 is the pre-mutability layout (ids + codes per list);
// v2, the one save() writes, appends tombstones, generation and
// compact_epoch per list. v1 files keep loading (lists come back fully
// live, generation 0).
constexpr std::uint32_t kIvfVersionV1 = 1;
constexpr std::uint32_t kIvfVersionV2 = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("serialize: truncated input");
  return v;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& is, std::uint64_t sanity_max) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > sanity_max) throw std::runtime_error("serialize: implausible size");
  std::vector<T> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!is) throw std::runtime_error("serialize: truncated array");
  return v;
}

constexpr std::uint64_t kMaxElems = 1ull << 36;  // sanity ceiling

}  // namespace

namespace quant {

void ProductQuantizer::save(std::ostream& os) const {
  write_pod(os, kPqMagic);
  write_pod(os, kVersion);
  write_pod<std::uint64_t>(os, dim_);
  write_pod<std::uint64_t>(os, m_);
  write_vec(os, codebooks_);
}

ProductQuantizer ProductQuantizer::load_from(std::istream& is) {
  if (read_pod<std::uint32_t>(is) != kPqMagic) {
    throw std::runtime_error("ProductQuantizer::load_from: bad magic");
  }
  if (read_pod<std::uint32_t>(is) != kVersion) {
    throw std::runtime_error("ProductQuantizer::load_from: bad version");
  }
  ProductQuantizer pq;
  pq.dim_ = read_pod<std::uint64_t>(is);
  pq.m_ = read_pod<std::uint64_t>(is);
  if (pq.m_ == 0 || pq.dim_ == 0 || pq.dim_ % pq.m_ != 0) {
    throw std::runtime_error("ProductQuantizer::load_from: bad dims");
  }
  pq.dsub_ = pq.dim_ / pq.m_;
  pq.codebooks_ = read_vec<float>(is, kMaxElems);
  if (pq.codebooks_.size() != pq.m_ * kPqKsub * pq.dsub_) {
    throw std::runtime_error("ProductQuantizer::load_from: bad codebooks");
  }
  pq.rebuild_transposed();
  return pq;
}

}  // namespace quant

namespace ivf {

void IvfIndex::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("IvfIndex::save: cannot open " + path);
  write_pod(os, kIvfMagic);
  write_pod(os, kIvfVersionV2);
  write_pod<std::uint64_t>(os, dim_);
  write_pod<std::uint64_t>(os, n_clusters_);
  write_pod<std::uint64_t>(os, n_points_);
  write_vec(os, centroids_);
  pq_.save(os);
  for (const InvertedList& list : lists_) {
    write_vec(os, list.ids);
    write_vec(os, list.codes);
    write_vec(os, list.tombstones);
    write_pod<std::uint32_t>(os, list.generation);
    write_pod<std::uint32_t>(os, list.compact_epoch);
  }
  if (!os) throw std::runtime_error("IvfIndex::save: write failed");
}

IvfIndex IvfIndex::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("IvfIndex::load: cannot open " + path);
  if (read_pod<std::uint32_t>(is) != kIvfMagic) {
    throw std::runtime_error("IvfIndex::load: bad magic");
  }
  const std::uint32_t version = read_pod<std::uint32_t>(is);
  if (version != kIvfVersionV1 && version != kIvfVersionV2) {
    throw std::runtime_error("IvfIndex::load: bad version");
  }
  IvfIndex idx;
  idx.dim_ = read_pod<std::uint64_t>(is);
  idx.n_clusters_ = read_pod<std::uint64_t>(is);
  idx.n_points_ = read_pod<std::uint64_t>(is);
  idx.centroids_ = read_vec<float>(is, kMaxElems);
  if (idx.centroids_.size() != idx.n_clusters_ * idx.dim_) {
    throw std::runtime_error("IvfIndex::load: bad centroids");
  }
  idx.mirror_centroids();
  idx.pq_ = quant::ProductQuantizer::load_from(is);
  if (idx.pq_.dim() != idx.dim_) {
    throw std::runtime_error("IvfIndex::load: PQ/index dim mismatch");
  }
  idx.lists_.resize(idx.n_clusters_);
  std::size_t total_live = 0;
  for (InvertedList& list : idx.lists_) {
    list.ids = read_vec<std::uint32_t>(is, kMaxElems);
    list.codes = read_vec<std::uint8_t>(is, kMaxElems);
    if (list.codes.size() != list.ids.size() * idx.pq_.m()) {
      throw std::runtime_error("IvfIndex::load: list size mismatch");
    }
    if (version >= kIvfVersionV2) {
      list.tombstones = read_vec<std::uint8_t>(is, kMaxElems);
      if (!list.tombstones.empty() &&
          list.tombstones.size() != list.ids.size()) {
        throw std::runtime_error("IvfIndex::load: tombstone size mismatch");
      }
      list.n_tombstones = 0;
      for (std::uint8_t t : list.tombstones) list.n_tombstones += t != 0;
      if (list.n_tombstones == 0) list.tombstones.clear();
      list.generation = read_pod<std::uint32_t>(is);
      list.compact_epoch = read_pod<std::uint32_t>(is);
    }
    total_live += list.live_size();
  }
  if (total_live != idx.n_points_) {
    throw std::runtime_error("IvfIndex::load: point count mismatch");
  }
  return idx;
}

}  // namespace ivf
}  // namespace upanns
