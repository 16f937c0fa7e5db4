#include "tensor/exec_backend.h"

#include <cstdlib>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

/// One built-in backend: canonical name and lookup alias.
struct BackendRow {
  const char* name;
  const char* alias;
};

/// Every backend, in presentation order (the oracle first).
constexpr BackendRow kBackends[] = {
    {"scalar", "direct"},
    {"gemm", "im2col-gemm"},
};

}  // namespace

std::string ref_backend_names() {
  std::vector<std::string> names;
  for (const BackendRow& row : kBackends) {
    names.emplace_back(row.name);
  }
  return join(names, ", ");
}

std::string resolve_ref_backend(const std::string& requested) {
  std::string name = trim(requested);
  if (name.empty()) {
    if (const char* env = std::getenv("VWSDK_REF_BACKEND")) {
      name = trim(env);
    }
  }
  if (name.empty()) {
    name = "gemm";
  }
  const std::string key = to_lower(name);
  for (const BackendRow& row : kBackends) {
    if (key == row.name || key == row.alias) {
      return row.name;
    }
  }
  throw NotFound(cat("unknown execution backend '", name,
                     "'; known: ", ref_backend_names()));
}

}  // namespace vwsdk
