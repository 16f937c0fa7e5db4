#pragma once

/// @file crossbar.h
/// Functional model of one PIM crossbar array.
///
/// A crossbar stores a weight in each cell (abstracting the conductance of
/// an RRAM device or the stored charge of an SRAM-CIM bitcell; see
/// DESIGN.md §2 for the substitution note).  One *computing cycle* drives a
/// voltage vector on the rows and reads the accumulated currents on the
/// columns:
///
///     current[col] = ADC( Σ_row  input[row] * cell[row][col] )
///
/// which is exactly one analog vector-matrix multiplication.  The model is
/// functional, not electrical: value types are doubles, non-idealities are
/// injected through ConverterModel (quantization) and NoiseModel (device
/// variation).
///
/// The crossbar also keeps *programming bookkeeping* (which cells were
/// written) so the simulator can measure array utilization and detect
/// placement collisions -- the physical analogue of a mapping bug.

#include <vector>

#include "common/types.h"
#include "pim/adc.h"
#include "pim/array_geometry.h"
#include "pim/noise.h"

namespace vwsdk {

/// One functional crossbar array.
class Crossbar {
 public:
  /// A crossbar of the given geometry with all cells erased (zero, not
  /// programmed).
  explicit Crossbar(ArrayGeometry geometry);

  const ArrayGeometry& geometry() const { return geometry_; }

  /// Program one cell with a weight value.  Programming the same cell
  /// twice throws InvalidArgument: mapping plans must never collide (each
  /// plan owns each cell for exactly one purpose).  Optional noise is
  /// applied at programming time, as on real hardware.
  void program(Dim row, Dim col, double value, NoiseModel* noise = nullptr);

  /// The stored value of a cell (zero if never programmed).
  double cell(Dim row, Dim col) const;

  /// Whether a cell has been programmed.
  bool is_programmed(Dim row, Dim col) const;

  /// One computing cycle: multiply-accumulate the `input` vector (length
  /// = rows; entries for idle rows are 0) down every column, applying the
  /// ADC model to each column read-out.  Returns `cols` column values.
  std::vector<double> compute(const std::vector<double>& input,
                              const ConverterModel& adc = {}) const;

  /// Number of programmed cells (utilization numerator, weight-cell
  /// convention of Eq. (9)).
  Count programmed_cell_count() const { return programmed_count_; }

  /// Fraction of programmed cells: programmed / (rows*cols).
  double utilization() const;

 private:
  std::size_t index(Dim row, Dim col) const;

  ArrayGeometry geometry_;
  std::vector<double> cells_;
  std::vector<char> programmed_;  // char, not bool: no proxy bit-fiddling
  Count programmed_count_ = 0;
};

}  // namespace vwsdk
