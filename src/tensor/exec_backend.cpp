#include "tensor/exec_backend.h"

#include <cstdlib>

#include "common/error.h"
#include "common/string_util.h"
#include "tensor/gemm_backend.h"

namespace vwsdk {

namespace {

/// The oracle: defers to conv2d_direct (tensor/conv_ref.h).
class ScalarBackend final : public RefBackend {
 public:
  Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                 const ConvConfig& config, ConvWorkspace* workspace,
                 ThreadPool* pool) const override {
    (void)workspace;  // the scalar loop needs no scratch and no threads
    (void)pool;
    return conv2d_direct(ifm, weights, config);
  }
};

/// The direct 7-deep loop of conv2d_direct: slow, obviously correct,
/// the oracle every other backend is pinned against.
const RefBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

/// Blocked im2col + register-blocked GEMM fanned out across the caller's
/// pool: bitwise identical to scalar on integer tensors, the fast default.
const RefBackend& gemm_backend() {
  static const GemmBackend backend;
  return backend;
}

/// One built-in backend: canonical name, lookup alias, shared instance.
struct BackendRow {
  const char* name;
  const char* alias;
  const RefBackend& (*instance)();
};

/// Every backend, in presentation order (the oracle first).
constexpr BackendRow kBackends[] = {
    {"scalar", "direct", &scalar_backend},
    {"gemm", "im2col-gemm", &gemm_backend},
};

const BackendRow& find_backend(const std::string& name) {
  const std::string key = to_lower(trim(name));
  for (const BackendRow& row : kBackends) {
    if (key == row.name || key == row.alias) {
      return row;
    }
  }
  throw NotFound(cat("unknown execution backend '", name,
                     "'; known: ", ref_backend_names()));
}

}  // namespace

const RefBackend& ref_backend(const std::string& name) {
  return find_backend(name).instance();
}

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
  // Canonicalize through the table: validates (NotFound lists the known
  // names) and maps aliases to the canonical name.
  return find_backend(name).name;
}

}  // namespace vwsdk
