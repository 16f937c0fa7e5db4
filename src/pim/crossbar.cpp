#include "pim/crossbar.h"

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

Crossbar::Crossbar(ArrayGeometry geometry) : geometry_(geometry) {
  geometry_.validate();
  const std::size_t total = static_cast<std::size_t>(geometry_.cell_count());
  cells_.assign(total, 0.0);
  programmed_.assign(total, 0);
}

std::size_t Crossbar::index(Dim row, Dim col) const {
  VWSDK_REQUIRE(row >= 0 && row < geometry_.rows && col >= 0 &&
                    col < geometry_.cols,
                cat("cell (", row, ", ", col, ") outside array ",
                    geometry_.to_string()));
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(
                                             geometry_.cols) +
         static_cast<std::size_t>(col);
}

void Crossbar::program(Dim row, Dim col, double value, NoiseModel* noise) {
  const std::size_t i = index(row, col);
  VWSDK_REQUIRE(programmed_[i] == 0,
                cat("cell (", row, ", ", col,
                    ") programmed twice: mapping plans must not collide"));
  cells_[i] = (noise != nullptr) ? noise->apply(value) : value;
  programmed_[i] = 1;
  ++programmed_count_;
}

double Crossbar::cell(Dim row, Dim col) const { return cells_[index(row, col)]; }

bool Crossbar::is_programmed(Dim row, Dim col) const {
  return programmed_[index(row, col)] != 0;
}

std::vector<double> Crossbar::compute(const std::vector<double>& input,
                                      const ConverterModel& adc) const {
  VWSDK_REQUIRE(static_cast<Dim>(input.size()) == geometry_.rows,
                cat("input vector length ", input.size(),
                    " != array rows ", geometry_.rows));
  std::vector<double> output(static_cast<std::size_t>(geometry_.cols), 0.0);
  for (Dim row = 0; row < geometry_.rows; ++row) {
    const double drive = input[static_cast<std::size_t>(row)];
    if (drive == 0.0) {
      continue;  // idle wordline contributes no current
    }
    const std::size_t base = static_cast<std::size_t>(row) *
                             static_cast<std::size_t>(geometry_.cols);
    for (Dim col = 0; col < geometry_.cols; ++col) {
      output[static_cast<std::size_t>(col)] +=
          drive * cells_[base + static_cast<std::size_t>(col)];
    }
  }
  if (adc.mode() != ConverterMode::kIdeal) {
    for (double& value : output) {
      value = adc.convert(value);
    }
  }
  return output;
}

double Crossbar::utilization() const {
  return static_cast<double>(programmed_count_) /
         static_cast<double>(geometry_.cell_count());
}

}  // namespace vwsdk
