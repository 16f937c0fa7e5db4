#pragma once

/// @file vwsdk.h
/// Umbrella header: the whole public API of the vwsdk library.
///
/// Layering (each header is also usable on its own):
///   common/   foundation utilities
///   tensor/   tensors and reference convolution
///   nn/       layer/network descriptors and the model zoo
///   pim/      crossbar arrays, converters, noise, energy
///   mapping/  cost model (Eqs. 1-8), utilization (Eq. 9), mapping plans
///   core/     the mapping algorithms (im2col, SMD, SDK, VW-SDK)
///   sim/      functional execution, verification, chip dispatch, traffic
///   serve/    the resident ServiceApi and the NDJSON serving daemon

#include "common/cli.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/types.h"

#include "tensor/conv_ref.h"
#include "tensor/exec_backend.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

#include "nn/layer.h"
#include "nn/model_zoo.h"
#include "nn/network.h"
#include "nn/network_spec.h"

#include "pim/adc.h"
#include "pim/array_geometry.h"
#include "pim/energy_model.h"
#include "pim/noise.h"

#include "mapping/activity.h"
#include "mapping/bit_slicing.h"
#include "mapping/conv_shape.h"
#include "mapping/cost_model.h"
#include "mapping/objective.h"
#include "mapping/mapping_plan.h"
#include "mapping/parallel_window.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "mapping/utilization.h"

#include "core/bit_sliced_mapper.h"
#include "core/cli_support.h"
#include "core/exhaustive_mapper.h"
#include "core/grouped_conv.h"
#include "core/im2col_mapper.h"
#include "core/mapper_registry.h"
#include "core/mapping_cache.h"
#include "core/mapping_context.h"
#include "core/mapping_decision.h"
#include "core/network_optimizer.h"
#include "core/pruned_mapper.h"
#include "core/report.h"
#include "core/sdk_mapper.h"
#include "core/search_trace.h"
#include "core/serialize.h"
#include "core/smd_mapper.h"
#include "core/vwsdk_mapper.h"

#include "sim/chip_allocator.h"
#include "sim/des.h"
#include "sim/dispatch.h"
#include "sim/executor.h"
#include "sim/traffic.h"
#include "sim/verifier.h"

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
