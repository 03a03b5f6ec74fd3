// Build provenance stamped into every telemetry JSON artifact (metrics
// snapshots, span logs, bench reports): the schema_version and build shape
// say which schema and build wrote an artifact, so a reader comparing two
// of them can tell when they are not comparable.
//
// The git sha / build flags are baked in at configure time via per-source
// compile definitions (see src/CMakeLists.txt); builds outside a git
// checkout report "unknown".
#pragma once

#include <string>

namespace upanns::obs {

class JsonWriter;

struct BuildProvenance {
  /// Version of the telemetry JSON schema itself — bump when the span or
  /// snapshot layout changes incompatibly.
  std::string schema_version;
  std::string git_sha;     ///< short commit sha, "unknown" outside git
  std::string compiler;    ///< e.g. "gcc 13.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE, "unspecified" when empty
  std::string flags;       ///< compile flags of this build
};

/// The provenance of this binary (computed once, immutable).
const BuildProvenance& build_provenance();

/// Write `"provenance": { ... }` as one member of the currently open JSON
/// object.
void append_provenance(JsonWriter& w);

}  // namespace upanns::obs
