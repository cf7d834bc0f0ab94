#ifndef MDBS_BENCH_BENCH_JSON_H_
#define MDBS_BENCH_BENCH_JSON_H_

// Machine-readable benchmark results. Each bench fills a BenchReport with
// one row per measured cell and writes BENCH_<name>.json (override the
// path with a `--json=PATH` argument), so sweeps can be diffed, plotted
// and regression-checked without scraping stdout tables.
//
//   {"bench":"throughput",
//    "env":{"git_sha":"...","build_type":"RelWithDebInfo",
//           "compiler":"GNU 13.2.0","usable_cpus":4},
//    "rows":[{"scheme":"Scheme3","mpl":8,...},...]}
//
// `env` says where the numbers came from. bench/CMakeLists.txt defines its
// MDBS_BENCH_* macros at configure time, so the SHA is the commit the build
// was configured at ("unknown" outside a git checkout).

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "sim/real_strand.h"

namespace mdbs::bench {

class BenchReport {
 public:
  using Cell = std::pair<std::string, std::variant<std::string, double>>;

  class Row {
   public:
    Row& Set(std::string key, std::string value) {
      cells_.emplace_back(std::move(key), std::move(value));
      return *this;
    }
    Row& Set(std::string key, double value) {
      cells_.emplace_back(std::move(key), value);
      return *this;
    }

   private:
    friend class BenchReport;
    std::vector<Cell> cells_;
  };

  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  Row& AddRow() { return rows_.emplace_back(); }

  /// BENCH_<name>.json in the working directory unless a `--json=PATH`
  /// argument overrides it.
  std::string PathFromArgs(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
    }
    return "BENCH_" + name_ + ".json";
  }

  Status WriteFile(const std::string& path) const {
    std::ostringstream os;
    {
      obs::JsonWriter json(os);
      json.BeginObject();
      json.Key("bench");
      json.String(name_);
      json.Key("env");
      json.BeginObject();
      json.Key("git_sha");
      json.String(MDBS_BENCH_GIT_SHA);
      json.Key("build_type");
      json.String(*MDBS_BENCH_BUILD_TYPE ? MDBS_BENCH_BUILD_TYPE : "none");
      json.Key("compiler");
      json.String(MDBS_BENCH_COMPILER);
      json.Key("usable_cpus");
      json.Int(sim::UsableCpus());
      json.EndObject();
      json.Key("rows");
      json.BeginArray(/*one_per_line=*/true);
      for (const Row& row : rows_) {
        json.BeginObject();
        for (const Cell& cell : row.cells_) {
          json.Key(cell.first);
          if (std::holds_alternative<double>(cell.second)) {
            json.Double(std::get<double>(cell.second));
          } else {
            json.String(std::get<std::string>(cell.second));
          }
        }
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return Status::Internal("cannot open " + path);
    }
    std::string text = os.str();
    size_t written = std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
    if (written != text.size()) {
      return Status::Internal("short write to " + path);
    }
    return Status::OK();
  }

  /// WriteFile + a one-line note on stdout; benches call this last.
  void WriteFromArgs(int argc, char** argv) const {
    std::string path = PathFromArgs(argc, argv);
    Status status = WriteFile(path);
    std::printf("\nresults: %s (%s)\n", path.c_str(),
                status.ToString().c_str());
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace mdbs::bench

#endif  // MDBS_BENCH_BENCH_JSON_H_
