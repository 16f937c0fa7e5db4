#include "core/vwsdk_mapper.h"

#include <gtest/gtest.h>

#include "core/im2col_mapper.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};
const ArrayGeometry k512x256{512, 256};

TEST(VwSdkMapper, FirstMinimumTieBreakPicks4x3OverTied4x4) {
  // VGG-13 conv5: 4x3 and 4x4 both cost 5832; Algorithm 1 scans h = 3
  // before h = 4, so 4x3 must win -- as the paper's Table I reports.
  const VwSdkMapper mapper;
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const MappingDecision decision = mapper.map(conv5, k512x512);
  EXPECT_EQ(decision.cost.window, (ParallelWindow{4, 3}));
  EXPECT_EQ(decision.cost.total, 5832);
}

TEST(VwSdkMapper, FallsBackToIm2colWhenNoWindowHelps) {
  const VwSdkMapper mapper;
  const ConvShape conv5 = ConvShape::square(7, 3, 512, 512);
  const MappingDecision decision = mapper.map(conv5, k512x512);
  EXPECT_TRUE(decision.is_im2col_fallback());
  EXPECT_EQ(decision.cost.split, RowSplit::kElementGranular);
  EXPECT_EQ(decision.cost.total, 225);
}

TEST(VwSdkMapper, NeverWorseThanIm2col) {
  const VwSdkMapper vw;
  const Im2colMapper im2col;
  for (const ConvShape& shape :
       {ConvShape::square(28, 3, 256, 512), ConvShape::square(56, 3, 64, 64),
        ConvShape::square(112, 7, 3, 64), ConvShape::square(13, 5, 12, 24)}) {
    for (const ArrayGeometry& geometry :
         {ArrayGeometry{128, 128}, ArrayGeometry{256, 256},
          ArrayGeometry{512, 256}}) {
      EXPECT_LE(vw.map(shape, geometry).cost.total,
                im2col.map(shape, geometry).cost.total)
          << shape.to_string() << " on " << geometry.to_string();
    }
  }
}

TEST(VwSdkMapper, TraceRecordsFullScan) {
  const VwSdkMapper mapper;
  const ConvShape small = ConvShape::square(8, 3, 4, 6);
  SearchTrace trace;
  MappingContext context{small, {64, 32}};
  context.trace = &trace;
  const MappingDecision decision = mapper.map(context);
  // Scan is (8-3+1)^2 - 1 = 35 candidates for an 8x8 IFM with 3x3 kernel.
  EXPECT_EQ(trace.candidates_visited(), 35);
  EXPECT_GT(trace.feasible_count(), 0);
  EXPECT_GE(trace.improvement_count(), 1);
  // The last improvement must be the returned window.
  const auto improvements = trace.improvements();
  ASSERT_FALSE(improvements.empty());
  EXPECT_EQ(improvements.back().window, decision.cost.window);
  EXPECT_EQ(improvements.back().cycles, decision.cost.total);
}

TEST(VwSdkMapper, TraceScanOrderIsWidthInnerHeightOuter) {
  const VwSdkMapper mapper;
  const ConvShape small = ConvShape::square(5, 3, 1, 1);
  SearchTrace trace;
  MappingContext context{small, {64, 32}};
  context.trace = &trace;
  (void)mapper.map(context);
  // Candidates for a 5x5 IFM: (w,h) in {3,4,5}^2 minus (3,3):
  // order: (4,3), (5,3), (3,4), (4,4), (5,4), (3,5), (4,5), (5,5).
  ASSERT_EQ(trace.candidates_visited(), 8);
  EXPECT_EQ(trace.steps()[0].window, (ParallelWindow{4, 3}));
  EXPECT_EQ(trace.steps()[1].window, (ParallelWindow{5, 3}));
  EXPECT_EQ(trace.steps()[2].window, (ParallelWindow{3, 4}));
  EXPECT_EQ(trace.steps()[7].window, (ParallelWindow{5, 5}));
}

TEST(VwSdkMapper, RectangularBeatsSquareOnPaperExample) {
  // Fig. 5(b)'s headline: on 512x256 with K=3, IC=42, OC=96 the 4x3
  // window wins and the optimizer must find it.
  const VwSdkMapper mapper;
  const ConvShape shape = ConvShape::square(56, 3, 42, 96);
  const MappingDecision decision = mapper.map(shape, k512x256);
  EXPECT_EQ(decision.cost.window, (ParallelWindow{4, 3}));
}

TEST(VwSdkMapper, WindowNeverExceedsIfm) {
  const VwSdkMapper mapper;
  const ConvShape tiny = ConvShape::square(4, 3, 2, 2);
  const MappingDecision decision = mapper.map(tiny, k512x512);
  EXPECT_LE(decision.cost.window.w, 4);
  EXPECT_LE(decision.cost.window.h, 4);
  // 4x4 whole-IFM window: 1 PW, IC_t = 2, OC_t = 2 -> 1 cycle.
  EXPECT_EQ(decision.cost.total, 1);
}

TEST(VwSdkMapper, StrideExtensionScansOnlyAdmissibleWindows) {
  ConvShape strided = ConvShape::square(9, 3, 2, 3);
  strided.stride_w = 2;
  strided.stride_h = 2;
  SearchTrace trace;
  const VwSdkMapper mapper;
  MappingContext context{strided, {64, 32}};
  context.trace = &trace;
  const MappingDecision decision = mapper.map(context);
  for (const SearchStep& step : trace.steps()) {
    EXPECT_EQ((step.window.w - 3) % 2, 0);
    EXPECT_EQ((step.window.h - 3) % 2, 0);
  }
  EXPECT_GE(decision.cost.n_parallel_windows, 1);
}

TEST(VwSdkMapper, NameAndDecisionMetadata) {
  const VwSdkMapper mapper;
  EXPECT_EQ(mapper.name(), "vw-sdk");
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingDecision decision = mapper.map(shape, {64, 32});
  EXPECT_EQ(decision.algorithm, "vw-sdk");
  EXPECT_EQ(decision.shape, shape);
  EXPECT_EQ(decision.geometry, (ArrayGeometry{64, 32}));
}

}  // namespace
}  // namespace vwsdk
