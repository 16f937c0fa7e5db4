#include "core/cli_support.h"

#include <algorithm>
#include <exception>
#include <iostream>

#include "common/error.h"
#include "common/string_util.h"
#include "core/mapper_registry.h"
#include "tensor/exec_backend.h"

namespace vwsdk {

void add_shape_options(ArgParser& args, Dim image, Dim kernel,
                       Dim in_channels, Dim out_channels) {
  args.add_int_option("image", image, "IFM width/height");
  args.add_int_option("kernel", kernel, "kernel width/height");
  args.add_int_option("ic", in_channels, "input channels");
  args.add_int_option("oc", out_channels, "output channels");
}

ConvShape shape_from_args(const ArgParser& args) {
  return ConvShape::square(dim_in_range(args, "image", 1),
                           dim_in_range(args, "kernel", 1),
                           dim_in_range(args, "ic", 1),
                           dim_in_range(args, "oc", 1));
}

void add_array_option(ArgParser& args,
                      const std::string& default_geometry) {
  args.add_option("array", default_geometry, "PIM array geometry, RxC");
}

ArrayGeometry array_from_args(const ArgParser& args) {
  return parse_geometry(args.get("array"));
}

void add_mappers_option(ArgParser& args) {
  args.add_option("mappers", "im2col,smd,sdk,vw-sdk",
                  cat("comma-separated mapping algorithms (",
                      MapperRegistry::instance().known_names(), ")"));
}

std::vector<std::string> mappers_from_args(const ArgParser& args) {
  const MapperRegistry& registry = MapperRegistry::instance();
  std::vector<std::string> names;
  for (const std::string& part : split(args.get("mappers"), ',')) {
    const std::string name = trim(part);
    if (name.empty()) {
      continue;
    }
    // Canonicalize through the registry (validates now, fails with the
    // bad name) so an alias duplicate like "vw-sdk,vwsdk" is caught too
    // -- a repeated mapper would make speedup columns ambiguous.
    const std::string canonical = registry.info(name).name;
    VWSDK_REQUIRE(std::find(names.begin(), names.end(), canonical) ==
                      names.end(),
                  cat("--mappers lists \"", canonical, "\" twice"));
    names.push_back(canonical);
  }
  VWSDK_REQUIRE(!names.empty(), "--mappers names no mapper");
  return names;
}

void add_objective_option(ArgParser& args) {
  args.add_option("objective", "cycles",
                  cat("search objective (", join(objective_names(), ", "),
                      ")"));
}

const Objective& objective_from_args(const ArgParser& args) {
  return objective_by_name(args.get("objective"));
}

void add_ref_backend_option(ArgParser& args) {
  args.add_option("ref-backend", "",
                  cat("reference execution backend (",
                      ref_backend_names(),
                      "; default: VWSDK_REF_BACKEND, then gemm)"));
}

std::string ref_backend_from_args(const ArgParser& args) {
  return resolve_ref_backend(args.get("ref-backend"));
}

long long int_in_range(const ArgParser& args, const std::string& name,
                       long long minimum, long long maximum) {
  const long long value = args.get_int(name);
  VWSDK_REQUIRE(value >= minimum,
                cat("--", name, " must be >= ", minimum, " (got ", value,
                    ")"));
  VWSDK_REQUIRE(value <= maximum,
                cat("--", name, " must be <= ", maximum, " (got ", value,
                    ")"));
  return value;
}

Dim dim_in_range(const ArgParser& args, const std::string& name,
                 long long minimum, long long maximum) {
  VWSDK_REQUIRE(maximum <= std::numeric_limits<Dim>::max(),
                cat("--", name, ": dim_in_range maximum exceeds Dim"));
  return static_cast<Dim>(int_in_range(args, name, minimum, maximum));
}

int exit_code_for(ErrorCode code) {
  return is_usage_error(code) ? kExitUsageError : kExitError;
}

int run_cli_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    // One classification -- classify_exception -- decides both the
    // stderr prefix and the exit code, the same category mapping the
    // serve daemon embeds as error codes in its JSON responses.
    // Non-vwsdk exceptions (std::bad_alloc, a filesystem throw, ...)
    // classify as runtime: still a clean exit-code-1 failure, never a
    // terminate().
    const ErrorCode code = classify_exception(e);
    std::cerr << (is_usage_error(code) ? "usage error: " : "error: ")
              << e.what() << "\n";
    return exit_code_for(code);
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return kExitError;
  }
}

void SubcommandSet::add(Subcommand command) {
  VWSDK_REQUIRE(!command.name.empty(), "subcommand needs a name");
  VWSDK_REQUIRE(command.handler != nullptr,
                cat("subcommand \"", command.name, "\" needs a handler"));
  VWSDK_REQUIRE(find(command.name) == nullptr,
                cat("subcommand \"", command.name, "\" registered twice"));
  commands_.push_back(std::move(command));
}

const Subcommand* SubcommandSet::find(const std::string& name) const {
  for (const Subcommand& command : commands_) {
    if (command.name == name) {
      return &command;
    }
  }
  return nullptr;
}

std::string SubcommandSet::command_list() const {
  std::size_t width = 0;
  for (const Subcommand& command : commands_) {
    width = std::max(width, command.name.size());
  }
  std::string out;
  for (const Subcommand& command : commands_) {
    out += cat("  ", command.name,
               std::string(width - command.name.size() + 2, ' '),
               command.summary, "\n");
  }
  return out;
}

int SubcommandSet::dispatch(
    int argc, const char* const* argv,
    const std::function<std::string()>& global_help,
    const std::string& version_line) const {
  if (argc < 2) {
    // A usage error, so stderr: stdout stays machine-consumable for
    // scripts that capture it (docs/CLI.md exit-code contract).
    std::cerr << global_help();
    return kExitUsageError;
  }
  const std::string name = argv[1];
  if (name == "--help" || name == "-h" || name == "help") {
    std::cout << global_help();
    return kExitOk;
  }
  if (name == "--version") {
    std::cout << version_line << "\n";
    return kExitOk;
  }
  if (const Subcommand* command = find(name)) {
    return command->handler(argc - 1, argv + 1);
  }
  std::vector<std::string> names;
  names.reserve(commands_.size());
  for (const Subcommand& command : commands_) {
    names.push_back(command.name);
  }
  throw InvalidArgument(cat("unknown command \"", name, "\" (known: ",
                            join(names, ", "), "); run vwsdk --help"));
}

}  // namespace vwsdk
