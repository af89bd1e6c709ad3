// End-to-end Closed-division submission (paper §4): run the full per-
// benchmark protocol (N seeds), assemble the submission with its system
// description, pass peer review (compliance checking over the logs alone),
// and publish the scored results table — exactly the lifecycle of a real
// MLPerf entry, on the two fastest mini workloads.
#include <cstdio>

#include "core/review.h"
#include "core/submission.h"
#include "harness/reference.h"
#include "harness/run.h"

using namespace mlperf;

namespace {

core::BenchmarkEntry run_protocol_for(const core::SuiteVersion& suite, core::BenchmarkId id) {
  const core::BenchmarkSpec& spec = core::find_spec(suite, id);
  std::printf("running %s: %lld runs to %s >= %.3g ...\n", spec.name.c_str(),
              static_cast<long long>(spec.aggregation.required_runs),
              spec.mini_quality.name.c_str(), spec.mini_quality.target);

  core::BenchmarkEntry entry;
  entry.benchmark = id;
  {
    auto probe = harness::make_reference_workload(id, harness::WorkloadScale::kReference);
    entry.optimizer_name = probe->optimizer_name();
    entry.model_signature = probe->model_signature();
    entry.augmentation_signature = probe->augmentation_signature();
    for (const auto& [name, value] : probe->hyperparameters())
      entry.hyperparameters[name] = value;
  }
  harness::RunOptions opts;
  opts.seed = 7;
  opts.max_epochs = 120;
  const auto outcomes = harness::run_protocol(
      [&] { return harness::make_reference_workload(id, harness::WorkloadScale::kReference); },
      spec.mini_quality, opts, spec.aggregation.required_runs);
  for (const auto& out : outcomes) {
    std::printf("  seed %.0f: %s, ttt %.0f ms\n",
                out.log.find(core::keys::kSeed)->as_number(),
                out.quality_reached ? "reached" : "MISSED", out.time_to_train_ms);
    entry.runs.push_back(harness::to_run_result(out));
  }
  return entry;
}

}  // namespace

int main() {
  const core::SuiteVersion suite = core::suite_v05();

  core::Submission sub;
  sub.organization = "mini-repro-labs";
  sub.division = core::Division::kClosed;
  sub.category = core::Category::kResearch;  // proof-of-concept hardware
  sub.system_type = core::SystemType::kOnPremise;
  sub.code_url = "https://example.org/mlperf-mini";
  sub.system.system_name = "one-core-box";
  sub.system.num_nodes = 1;
  sub.system.processor_model = "generic-x86";
  sub.system.processors_per_node = 1;
  sub.system.host_memory_gb = 4.0;
  sub.system.os = "linux";
  sub.system.libraries = {"mlperf-mini-train v1.0"};

  sub.entries.push_back(run_protocol_for(suite, core::BenchmarkId::kRecommendation));
  sub.entries.push_back(run_protocol_for(suite, core::BenchmarkId::kObjectDetectionLight));

  std::printf("\n== peer review ==\n");
  const core::ComplianceReport review =
      core::review_submission(sub, suite, core::kModelCreationCapMs);
  std::printf("%s", review.to_string().c_str());
  if (!review.compliant()) {
    std::printf("submission rejected; fix the issues above and resubmit (§4.1)\n");
    return 1;
  }

  std::printf("\n== published results (no summary score, per §4.2.4) ==\n");
  const core::ResultsReport report =
      core::score_submission(sub, suite, core::CloudScaleModel{});
  std::printf("%s", core::format_report(report).c_str());
  return 0;
}
