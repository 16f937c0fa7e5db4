#pragma once

/// @file cli_support.h
/// Shared command-line glue for the `vwsdk` CLI (apps/) and the example
/// binaries: the layer-shape / array-geometry / mapper / objective
/// option bundles every tool was hand-rolling, plus the common "parse,
/// run, report errors" main-function skeleton with the CLI exit-code
/// convention (0 success, 1 runtime error, 2 usage error; see
/// docs/CLI.md).

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/mapping_decision.h"
#include "mapping/conv_shape.h"
#include "mapping/objective.h"
#include "pim/array_geometry.h"

namespace vwsdk {

/// Process exit codes shared by every vwsdk command-line tool.
enum ExitCode : int {
  kExitOk = 0,         ///< success (including --help)
  kExitError = 1,      ///< a runtime error (vwsdk::Error or any exception)
  kExitUsageError = 2  ///< malformed flags / unknown subcommand
};

/// Declare the layer-shape options --image, --kernel, --ic, --oc with the
/// given defaults.
void add_shape_options(ArgParser& args, Dim image, Dim kernel,
                       Dim in_channels, Dim out_channels);

/// The ConvShape described by the options of add_shape_options.
ConvShape shape_from_args(const ArgParser& args);

/// Declare the --array option (PIM array geometry, "RxC").
void add_array_option(ArgParser& args, const std::string& default_geometry);

/// The ArrayGeometry parsed from --array.
ArrayGeometry array_from_args(const ArgParser& args);

/// Declare --mappers, a comma-separated list of mapper names defaulting
/// to the paper's comparison set "im2col,smd,sdk,vw-sdk".  The help text
/// lists the registered names (MapperRegistry::instance()).
void add_mappers_option(ArgParser& args);

/// The mapper names from --mappers, validated against
/// MapperRegistry::instance() (throws NotFound listing the registered
/// names on an unknown name, InvalidArgument on a duplicate -- a
/// repeated mapper would make speedup columns ambiguous).
std::vector<std::string> mappers_from_args(const ArgParser& args);

/// Declare --objective, the search objective name, defaulting to
/// "cycles"; the help text lists the built-in objectives.
void add_objective_option(ArgParser& args);

/// Declare --ref-backend, the reference execution backend a functional
/// verification compares against; the help text lists the known
/// backends (ref_backend_names()).  Empty (the default) defers
/// to the `VWSDK_REF_BACKEND` environment variable, then "gemm".
void add_ref_backend_option(ArgParser& args);

/// The canonical backend name from --ref-backend, resolved through
/// resolve_ref_backend (throws NotFound listing the known names on
/// an unknown name).
std::string ref_backend_from_args(const ArgParser& args);

/// The Objective parsed from --objective (throws NotFound listing the
/// known objectives).  The reference is a process-lifetime singleton.
const Objective& objective_from_args(const ArgParser& args);

/// The integer option `name`, validated to lie in [minimum, maximum];
/// throws InvalidArgument naming the flag and the violated bound.  The
/// CLI's count-valued flags (--arrays, --chips, --batch, ...) share
/// this so their usage errors read alike; callers narrowing to Dim pass
/// its max so out-of-range input fails loudly instead of wrapping.
long long int_in_range(
    const ArgParser& args, const std::string& name, long long minimum,
    long long maximum = std::numeric_limits<long long>::max());

/// int_in_range narrowed to Dim: the guard for every shape/geometry
/// flag, so `--image 4294967297` is a usage error instead of silently
/// wrapping to 1 through a `static_cast<Dim>`.
Dim dim_in_range(const ArgParser& args, const std::string& name,
                 long long minimum,
                 long long maximum = std::numeric_limits<Dim>::max());

/// The exit code of an error category: kExitUsageError for the
/// usage-shaped codes (is_usage_error, common/error.h), kExitError for
/// everything else -- the single mapping both run_cli_main and the
/// serve daemon's exit paths derive from (docs/SERVE.md documents the
/// full code table).
int exit_code_for(ErrorCode code);

/// Run `body` (argument parsing included) under the standard error
/// report: the caught exception is classified through
/// classify_exception (common/error.h); usage-shaped categories print
/// "usage error: ..." and return kExitUsageError, everything else --
/// vwsdk::Error or otherwise -- prints "error: ..." and returns
/// kExitError instead of terminating the process.  `body` returns the
/// exit code for the success path.
int run_cli_main(const std::function<int()>& body);

/// One entry of a CLI's subcommand table: the name it dispatches on,
/// the one-line summary the global help derives, and the handler that
/// receives argv rebased so argv[0] is the subcommand itself.
struct Subcommand {
  std::string name;     ///< dispatch key ("map", "serve", ...)
  std::string summary;  ///< one line for the global help's command list
  std::function<int(int argc, const char* const* argv)> handler;
};

/// A declarative subcommand table: the single source the dispatch loop,
/// the global help's command list, and the unknown-command error all
/// derive from, so registering a subcommand is one `add` call (the same
/// pattern MapperRegistry applies to mapper names).
class SubcommandSet {
 public:
  /// Register a subcommand; throws InvalidArgument on an empty
  /// name/handler or a duplicate name.
  void add(Subcommand command);

  /// The registered subcommands in registration order.
  const std::vector<Subcommand>& commands() const { return commands_; }

  /// The entry `name` dispatches to, or nullptr.
  const Subcommand* find(const std::string& name) const;

  /// The aligned command list embedded in the global help, one
  /// "  name   summary" line per subcommand in registration order.
  std::string command_list() const;

  /// Dispatch argv: no argument prints `global_help()` to stderr (exit
  /// 2); --help/-h/help print it to stdout and --version prints
  /// `version_line` (exit 0); a registered name runs its handler on the
  /// rebased argv; anything else throws InvalidArgument naming the
  /// known commands.
  int dispatch(int argc, const char* const* argv,
               const std::function<std::string()>& global_help,
               const std::string& version_line) const;

 private:
  std::vector<Subcommand> commands_;
};

}  // namespace vwsdk
