// Unit tests of the benchmark harness's own rules: the tail percentile, the
// self-time subtraction, the interval/verdict reference checks, and the
// seeded request streams. The smoke runs of every workload are separate
// ctest entries (CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "catalogue.hpp"
#include "daemon/protocol.hpp"
#include "daemon_mixed.hpp"
#include "harness.hpp"
#include "references.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailPercentile, PicksTheHighestPercentileWithTenSamplesBeyond) {
  // 100 samples: p90 is the 90th value with exactly 10 beyond; p99 has 1.
  Tail tail = tail_percentile(one_to(100));
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 100u);

  // 1000 samples: p99 keeps exactly 10 beyond, p99.9 only 1.
  tail = tail_percentile(one_to(1000));
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, FallsBackToTheMedianWhenTooFewSamples) {
  // 99 samples: p90 sits at rank 90 with only 9 beyond.
  Tail tail = tail_percentile(one_to(99));
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 50.0);
  EXPECT_EQ(tail.beyond, 49u);

  tail = tail_percentile({});
  EXPECT_EQ(tail.samples, 0u);
  EXPECT_EQ(tail.value, 0.0);
}

TEST(TailPercentile, IgnoresSampleOrder) {
  std::vector<double> shuffled = one_to(500);
  Rng rng(3);
  rng.shuffle(shuffled);
  const Tail tail = tail_percentile(shuffled);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 450.0);
  EXPECT_EQ(tail.beyond, 50u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(std::uint64_t id, std::uint64_t parent, const char* name, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildSpans) {
  // parent [0, 100ms]; children [10, 40] and [30, 60] overlap, covering 50.
  // Grandchild [20, 30] sits inside the first child.
  const std::int64_t ms = 1'000'000;
  const std::vector<Span> spans = {
      span(1, 0, "query", 0, 100 * ms),     span(2, 1, "plan.compile", 10 * ms, 40 * ms),
      span(3, 1, "plan.execute", 30 * ms, 60 * ms), span(4, 2, "logic.parse", 20 * ms, 30 * ms)};
  const auto self = self_time_ms(spans);
  EXPECT_NEAR(self.at("query"), 50.0, 1e-9);
  EXPECT_NEAR(self.at("plan.compile"), 20.0, 1e-9);
  EXPECT_NEAR(self.at("plan.execute"), 30.0, 1e-9);
  EXPECT_NEAR(self.at("logic.parse"), 10.0, 1e-9);
}

TEST(SelfTime, ClipsChildrenToTheParentAndSumsByName) {
  const std::int64_t ms = 1'000'000;
  const std::vector<Span> spans = {span(1, 0, "query", 0, 10 * ms),
                                   span(2, 1, "plan.execute", 8 * ms, 15 * ms),
                                   span(3, 0, "query", 20 * ms, 25 * ms)};
  const auto self = self_time_ms(spans);
  EXPECT_NEAR(self.at("query"), 8.0 + 5.0, 1e-9);
  EXPECT_NEAR(self.at("plan.execute"), 7.0, 1e-9);
}

TEST(Tracer, NestsSpansAndRecordsNothingWhenDisabled) {
  Tracer tracer(true);
  {
    const ScopedSpan outer(tracer, "query", 7);
    const ScopedSpan inner(tracer, "plan.compile", 7);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].query, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  Tracer off(false);
  { const ScopedSpan ignored(off, "query", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Enclosure, AnswerMustMeetTheReference) {
  const RefValue ref{0.15, 0.16};
  EXPECT_TRUE(encloses(0.1, 0.2, ref, 0.0));
  EXPECT_TRUE(encloses(0.155, 0.155, ref, 0.0));  // point inside the reference
  EXPECT_TRUE(encloses(0.16, 0.3, ref, 0.0));     // touching counts
  EXPECT_FALSE(encloses(0.2, 0.3, ref, 0.0));
  EXPECT_FALSE(encloses(0.0, 0.1, ref, 0.0));
  EXPECT_TRUE(encloses(0.0, 0.1, ref, 0.06));     // slack for point answers
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(encloses(nan, 0.3, ref, 1.0));
  EXPECT_FALSE(encloses(0.3, 0.2, ref, 1.0));     // inverted interval
}

TEST(Enclosure, VerdictMustNotContradictTheReference) {
  const RefValue low{0.3, 0.3};
  EXPECT_TRUE(verdict_consistent('N', ">", 0.5, low, 0.0));
  EXPECT_FALSE(verdict_consistent('Y', ">", 0.5, low, 0.0));
  EXPECT_TRUE(verdict_consistent('Y', "<", 0.5, low, 0.0));
  EXPECT_FALSE(verdict_consistent('N', "<=", 0.5, low, 0.0));
  EXPECT_TRUE(verdict_consistent('?', ">", 0.5, low, 0.0));
  // A reference straddling the threshold decides nothing.
  const RefValue straddle{0.49, 0.51};
  EXPECT_TRUE(verdict_consistent('Y', ">", 0.5, straddle, 0.0));
  EXPECT_TRUE(verdict_consistent('N', ">", 0.5, straddle, 0.0));
  EXPECT_FALSE(verdict_consistent('x', ">", 0.5, low, 0.0));
}

TEST(Enclosure, CheckAnswerReportsTheFirstBadState) {
  Reference reference;
  reference.states = {0, 2};
  reference.values = {{0.2, 0.2}, {0.8, 0.8}};
  reference.tol = 1e-12;
  const FormulaSpec formula{"P", ">", {0.5}, "[a U[0,1] b]", ""};
  FormulaAnswer answer{"NYY", {0.1, 0.0, 0.7}, {0.3, 1.0, 0.9}};
  EXPECT_EQ(check_answer(reference, formula, 0.5, answer), "");
  answer.verdicts = "NYN";  // state 2 is surely above 0.5
  EXPECT_NE(check_answer(reference, formula, 0.5, answer).find("state 2"), std::string::npos);
  answer = {"NYY", {0.1, 0.0, 0.85}, {0.3, 1.0, 0.9}};  // misses 0.8
  EXPECT_NE(check_answer(reference, formula, 0.5, answer).find("misses"), std::string::npos);
}

TEST(ReferenceStates, CoversSmallModelsFullyAndLargeOnesEvenly) {
  EXPECT_EQ(reference_states(5).size(), 5u);
  const auto states = reference_states(65536);
  ASSERT_EQ(states.size(), kMaxReferenceStates);
  EXPECT_EQ(states.front(), 0u);
  EXPECT_LT(states.back(), 65536u);
  EXPECT_TRUE(std::is_sorted(states.begin(), states.end()));
}

/// The bytes a client sends for request `index`: a write's load op (whose
/// model files hold the seeded random model named beside it), then the check.
std::string sent(const DaemonStream& stream, std::size_t index) {
  const DaemonRequest request = stream.at(index);
  std::string bytes;
  if (request.write) {
    bytes += stream.random_source(request.random) + "\n";
    bytes += csrlmrm::daemon::frame(stream.load_request(request, "work"));
  }
  return bytes + csrlmrm::daemon::frame(stream.check_request(request));
}

TEST(SeededStream, SameSeedSameBytesOtherSeedOtherBytes) {
  const Catalogue reads = daemon_read_catalogue();
  const DaemonStream a(7, reads);
  const DaemonStream b(7, reads);
  const DaemonStream c(8, reads);
  std::string wire_a;
  std::string wire_b;
  std::string wire_c;
  for (std::size_t i = 0; i < 500; ++i) {
    wire_a += sent(a, i);
    wire_b += sent(b, i);
    wire_c += sent(c, i);
  }
  EXPECT_EQ(wire_a, wire_b);
  EXPECT_NE(wire_a, wire_c);
}

TEST(SeededStream, MixesWritesAndTouchesEveryResidentModelEachRound) {
  const Catalogue reads = daemon_read_catalogue();
  const DaemonStream stream(11, reads);
  std::size_t writes = 0;
  std::set<std::size_t> randoms;
  std::vector<std::size_t> read_order;
  for (std::size_t i = 0; i < 200; ++i) {
    const DaemonRequest request = stream.at(i);
    if (request.write) {
      ++writes;
      randoms.insert(request.random);
    } else {
      read_order.push_back(request.query);
    }
  }
  EXPECT_EQ(writes, 200 / DaemonStream::kWriteEvery);
  // More distinct random models than the daemon keeps resident.
  EXPECT_EQ(randoms.size(), DaemonStream::kRandomPool);
  const std::size_t models = reads.queries.size();
  for (std::size_t round = 0; round + models <= read_order.size(); round += models) {
    const std::set<std::size_t> seen(read_order.begin() + static_cast<std::ptrdiff_t>(round),
                                     read_order.begin() +
                                         static_cast<std::ptrdiff_t>(round + models));
    EXPECT_EQ(seen.size(), models);
  }
}

TEST(SeededStream, ThresholdsComeFromTheCatalogue) {
  const Catalogue catalogue = paper_cold_catalogue();
  Rng rng(5);
  for (const QuerySpec& query : catalogue.queries) {
    const std::vector<double> thresholds = draw_thresholds(query, rng);
    ASSERT_EQ(thresholds.size(), query.formulas.size());
    for (std::size_t f = 0; f < thresholds.size(); ++f) {
      const auto& allowed = query.formulas[f].thresholds;
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), thresholds[f]), allowed.end());
    }
  }
}

TEST(Catalogues, OddSizedAndEveryFormulaHasAStoredReference) {
  const std::pair<const char*, Catalogue> catalogues[] = {
      {"paper_cold", paper_cold_catalogue()},
      {"large_sweep", large_sweep_catalogue()},
      {"daemon_mixed", daemon_read_catalogue()}};
  for (const auto& [name, catalogue] : catalogues) {
    EXPECT_EQ(catalogue.queries.size() % 2, 1u) << name;
    const ReferenceSet references = ReferenceSet::load(PERFBENCH_REFERENCES_DIR, name);
    for (const QuerySpec& query : catalogue.queries) {
      for (const FormulaSpec& formula : query.formulas) {
        EXPECT_NE(references.find(reference_key(query.model, formula)), nullptr)
            << name << ": " << reference_key(query.model, formula);
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
