#pragma once

/// Seeded (shape, geometry) draws shared by the randomized sweeps, so a
/// second suite can replay exactly the draws of another.

#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "mapping/conv_shape.h"
#include "pim/array_geometry.h"

namespace vwsdk {

struct RandomDraw {
  ConvShape shape;
  ArrayGeometry geometry;
  std::string context;
};

/// Draw a random-but-valid (shape, geometry) pair.  `small` keeps sizes
/// executable on the functional simulator.
inline RandomDraw draw(Rng& rng, bool small) {
  RandomDraw d;
  const Dim kernel = static_cast<Dim>(rng.uniform_int(1, small ? 5 : 7));
  const Dim image =
      static_cast<Dim>(rng.uniform_int(kernel, small ? 14 : 64));
  d.shape.kernel_w = kernel;
  d.shape.kernel_h = static_cast<Dim>(rng.uniform_int(1, kernel));
  d.shape.ifm_w = image;
  d.shape.ifm_h = static_cast<Dim>(
      rng.uniform_int(d.shape.kernel_h, small ? 14 : 64));
  d.shape.in_channels =
      static_cast<Dim>(rng.uniform_int(1, small ? 12 : 512));
  d.shape.out_channels =
      static_cast<Dim>(rng.uniform_int(1, small ? 16 : 512));
  d.geometry.rows = static_cast<Dim>(rng.uniform_int(8, small ? 96 : 512));
  d.geometry.cols = static_cast<Dim>(rng.uniform_int(4, small ? 48 : 512));
  d.shape.validate();
  d.geometry.validate();
  d.context = cat(d.shape.to_string(), " on ", d.geometry.to_string());
  return d;
}

}  // namespace vwsdk
