// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmp <dir> [--spans <file>] [--git-sha <sha>]
//
// Runs one workload (sort-wide, index-zipf, ingest-wal, serve-mixed) in
// `--tmp`, which must be an existing, empty, per-run directory. Prints a
// header, one line per workload-named metric, and as its last line one
// JSON object: correct / attempted / failed, every metric value the
// workload set, and the exact logical counts the runner compares across
// runs. perfbench/run.py builds this binary, picks the metrics of the
// mode out of the values and is the intended entry point.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/io_engine.h"
#include "report.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::MachineSpeed;
using perfbench::Report;
using perfbench::SpanRecorder;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <sort-wide|"
               "index-zipf|ingest-wal|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp <dir> [--spans <file>] [--git-sha <sha>]\n",
               msg);
  return 2;
}

bool IoUringAvailable() {
  vem::IoEngine probe(1, 1, vem::IoBackend::kIoUring);
  return probe.backend() == vem::IoBackend::kIoUring;
}

/// A JSON number; null for a value that is not finite.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Spans of the traced run: a per-name summary (self time from the
/// nesting), then the spans themselves, capped so long runs stay small.
bool WriteSpans(const std::string& path, const SpanRecorder& rec) {
  constexpr size_t kMaxSpans = 100000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# name\tcount\twall_s\tself_s\tcpu_s\n");
  for (const auto& [name, s] : perfbench::Summarize(rec)) {
    std::fprintf(f, "# %s\t%zu\t%.9f\t%.9f\t%.9f\n", name.c_str(), s.count,
                 s.wall_s, s.self_s, s.cpu_s);
  }
  std::fprintf(f,
               "thread\tspan\tparent\trequest\tname\tstart_ns\tend_ns\tcpu_ns\t"
               "self_ns\n");
  size_t written = 0;
  for (const auto& buf : rec.buffers()) {
    const auto& spans = buf->spans();
    std::vector<uint64_t> self = perfbench::SelfTimes(spans);
    for (size_t i = 0; i < spans.size() && written < kMaxSpans; ++i, ++written) {
      const perfbench::Span& s = spans[i];
      std::fprintf(f, "%u\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\t%llu\t%llu\n",
                   buf->thread(), i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.cpu_ns),
                   static_cast<unsigned long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && args.seconds > 0 &&
                     args.seconds <= 3600;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      args.trace = v == "1";
    } else if (k == "--tmp") {
      args.tmp_dir = v;
    } else if (k == "--spans") {
      args.spans_out = v;
    } else if (k == "--git-sha") {
      git_sha = v;
    } else {
      return Usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace || args.tmp_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --tmp are required");
  }
  void (*run)(const Args&, SpanRecorder*, MachineSpeed*, Report*) = nullptr;
  if (args.workload == "sort-wide") run = perfbench::RunSortWide;
  if (args.workload == "index-zipf") run = perfbench::RunIndexZipf;
  if (args.workload == "ingest-wal") run = perfbench::RunIngestWal;
  if (args.workload == "serve-mixed") run = perfbench::RunServeMixed;
  if (run == nullptr) return Usage("unknown workload");

  utsname un{};
  uname(&un);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              int(args.trace));
  std::printf("# git_sha=%s nproc=%ld kernel=%s build_type=%s io_uring=%s\n",
              git_sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN), un.release,
              PERFBENCH_BUILD_TYPE, IoUringAvailable() ? "yes" : "no");
  std::fflush(stdout);

  SpanRecorder rec;
  MachineSpeed speed;
  Report rep;
  run(args, &rec, &speed, &rep);
  std::printf("# reference kernel: %zu samples, nominal %g ms, median "
              "slowness %s\n",
              speed.samples(), MachineSpeed::kNominalMs,
              Number(speed.Slowness()).c_str());
  std::printf("# reference kernel ms:");
  for (double ms : speed.times_ms()) std::printf(" %.2f", ms);
  std::printf("\n");

  if (args.trace && !args.spans_out.empty() && !WriteSpans(args.spans_out, rec)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.spans_out.c_str());
  }

  const bool correct = rep.failed() == 0 && rep.attempted() > 0;
  std::string values;
  for (const auto& [name, v] : rep.values()) {
    if (!values.empty()) values += ", ";
    values += JsonString(name) + ": " + Number(v);
  }
  for (const auto& n : rep.named()) {
    std::printf("metric %s = %s %s\n", n.name.c_str(), Number(n.value).c_str(),
                n.unit.c_str());
  }
  const double failed_share =
      rep.attempted() ? double(rep.failed()) / double(rep.attempted()) : 1.0;
  std::printf("metric failed_share = %s ratio (%llu of %llu)\n",
              Number(failed_share).c_str(),
              static_cast<unsigned long long>(rep.failed()),
              static_cast<unsigned long long>(rep.attempted()));
  for (const std::string& f : rep.failures()) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::string exact;
  for (const auto& [name, v] : rep.exact()) {
    if (!exact.empty()) exact += ", ";
    exact += JsonString(name) + ": " + Number(v);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"values\": {%s}, \"exact\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted()),
      static_cast<unsigned long long>(rep.failed()), values.c_str(),
      exact.c_str());
  return correct ? 0 : 1;
}
