#include "data/io.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace upanns::data {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

template <typename Elem>
Dataset read_vecs(const std::string& path, std::size_t max_rows) {
  FilePtr f = open_or_throw(path, "rb");
  Dataset ds;
  std::vector<Elem> row;
  for (std::size_t r = 0; max_rows == 0 || r < max_rows; ++r) {
    std::int32_t dim = 0;
    if (std::fread(&dim, sizeof(dim), 1, f.get()) != 1) break;  // EOF
    if (dim <= 0) throw std::runtime_error("bad row dim in " + path);
    if (ds.dim == 0) {
      ds.dim = static_cast<std::size_t>(dim);
    } else if (ds.dim != static_cast<std::size_t>(dim)) {
      throw std::runtime_error("inconsistent dims in " + path);
    }
    row.resize(ds.dim);
    if (std::fread(row.data(), sizeof(Elem), ds.dim, f.get()) != ds.dim) {
      throw std::runtime_error("truncated row in " + path);
    }
    for (Elem e : row) ds.values.push_back(static_cast<float>(e));
    ++ds.n;
  }
  return ds;
}

template <typename Elem>
void write_vecs(const std::string& path, const Dataset& ds) {
  FilePtr f = open_or_throw(path, "wb");
  std::vector<Elem> row(ds.dim);
  const auto dim = static_cast<std::int32_t>(ds.dim);
  for (std::size_t i = 0; i < ds.n; ++i) {
    const float* src = ds.row(i);
    for (std::size_t d = 0; d < ds.dim; ++d) row[d] = static_cast<Elem>(src[d]);
    if (std::fwrite(&dim, sizeof(dim), 1, f.get()) != 1 ||
        std::fwrite(row.data(), sizeof(Elem), ds.dim, f.get()) != ds.dim) {
      throw std::runtime_error("short write to " + path);
    }
  }
}

}  // namespace

Dataset read_fvecs(const std::string& path, std::size_t max_rows) {
  return read_vecs<float>(path, max_rows);
}

Dataset read_bvecs(const std::string& path, std::size_t max_rows) {
  return read_vecs<std::uint8_t>(path, max_rows);
}

std::vector<std::vector<std::int32_t>> read_ivecs(const std::string& path,
                                                  std::size_t max_rows) {
  FilePtr f = open_or_throw(path, "rb");
  std::vector<std::vector<std::int32_t>> rows;
  for (std::size_t r = 0; max_rows == 0 || r < max_rows; ++r) {
    std::int32_t dim = 0;
    if (std::fread(&dim, sizeof(dim), 1, f.get()) != 1) break;
    if (dim < 0) throw std::runtime_error("bad row dim in " + path);
    std::vector<std::int32_t> row(static_cast<std::size_t>(dim));
    // Empty rows are legal; their data() may be null, which fread rejects.
    if (!row.empty() && std::fread(row.data(), sizeof(std::int32_t),
                                   row.size(), f.get()) != row.size()) {
      throw std::runtime_error("truncated row in " + path);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_fvecs(const std::string& path, const Dataset& ds) {
  write_vecs<float>(path, ds);
}

void write_bvecs(const std::string& path, const Dataset& ds) {
  write_vecs<std::uint8_t>(path, ds);
}

void write_ivecs(const std::string& path,
                 const std::vector<std::vector<std::int32_t>>& rows) {
  FilePtr f = open_or_throw(path, "wb");
  for (const auto& row : rows) {
    const auto dim = static_cast<std::int32_t>(row.size());
    if (std::fwrite(&dim, sizeof(dim), 1, f.get()) != 1 ||
        (!row.empty() && std::fwrite(row.data(), sizeof(std::int32_t),
                                     row.size(), f.get()) != row.size())) {
      throw std::runtime_error("short write to " + path);
    }
  }
}

}  // namespace upanns::data
