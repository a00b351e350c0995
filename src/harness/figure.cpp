#include "harness/figure.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>

#include "common/error.hpp"
#include "perf/model.hpp"
#include "report/svg_chart.hpp"
#include "schemes/scheme.hpp"

namespace nustencil::harness {

namespace {

const std::vector<std::string> kReferenceLines = {"PeakDP", "LL1B0C", "SysBIC", "SysB0C"};

bool is_reference(const std::string& name) {
  for (const auto& r : kReferenceLines)
    if (r == name) return true;
  return false;
}

core::StencilSpec figure_stencil(const FigureSpec& spec) {
  if (spec.banded) return core::StencilSpec::banded_star(3, spec.order);
  if (spec.order == 1) return core::StencilSpec::paper_3d7p();
  return core::StencilSpec::stable_star(3, spec.order);
}

/// Cube edge for `threads` cores: weak scaling grows the volume linearly
/// with the core count (one cube, not an agglomeration — Section IV-B).
Index edge_for(const FigureSpec& spec, Index base, int threads) {
  if (!spec.weak) return base;
  const double edge = static_cast<double>(base) * std::cbrt(static_cast<double>(threads));
  return static_cast<Index>(std::lround(edge));
}

double reference_line(const std::string& name, const topology::MachineSpec& m,
                      const core::StencilSpec& st, int threads) {
  if (name == "PeakDP") return perf::peak_dp_line(m, st, threads);
  if (name == "LL1B0C") return perf::ll1band0c_line(m, st, threads);
  if (name == "SysBIC") return perf::sysbandic_line(m, st, threads);
  if (name == "SysB0C") return perf::sysband0c_line(m, st, threads);
  throw Error("unknown reference line: " + name);
}

}  // namespace

FigureOptions parse_options(int argc, char** argv) {
  FigureOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) opt.csv = true;
    if (std::strcmp(argv[i], "--full") == 0) opt.quick = false;
    if (std::strcmp(argv[i], "--domain") == 0 && i + 1 < argc)
      opt.sim_domain = std::atol(argv[++i]);
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
      opt.sim_steps = std::atol(argv[++i]);
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      opt.reps = std::max(1, std::atoi(argv[++i]));
    if (std::strcmp(argv[i], "--svg") == 0 && i + 1 < argc) opt.svg = argv[++i];
  }
  return opt;
}

FigureResult run_figure(const FigureSpec& spec, const FigureOptions& options) {
  const core::StencilSpec stencil = figure_stencil(spec);
  FigureResult result{Table(spec.id + ": " + spec.title + " [" + spec.machine.name +
                            "] (Gupdates/s per core)"),
                      spec.cores,
                      {}};
  Table& table = result.table;
  std::vector<std::string> header = {"cores"};
  for (const auto& s : spec.series) header.push_back(s);
  table.set_header(header);

  for (int n : spec.cores) {
    std::vector<double> row;
    for (const auto& name : spec.series) {
      if (is_reference(name)) {
        row.push_back(reference_line(name, spec.machine, stencil, n));
        result.values[name].push_back(row.back());
        continue;
      }
      const auto scheme = schemes::make_scheme(name);

      // Measurement run (scaled down unless --full): real execution under
      // the virtual topology to measure locality and per-node demand.
      const Index sim_base = options.quick ? options.sim_domain : spec.domain;
      // Floor: every scheme needs tiles of at least 2s cells per thread.
      const Index sim_edge =
          std::max<Index>(edge_for(spec, sim_base, n), 2 * spec.order * n);
      schemes::RunConfig cfg;
      cfg.num_threads = n;
      cfg.timesteps = options.quick ? options.sim_steps : options.paper_steps;
      cfg.instrument = true;
      cfg.machine = &spec.machine;
      cfg.boundary = scheme->default_boundary();
      // Match the page-to-domain granularity of the paper-scale runs.
      const Index paper_edge_now = edge_for(spec, spec.domain, n);
      Index page = 4096 * sim_edge / std::max<Index>(1, paper_edge_now);
      Index rounded = 64;
      while (rounded * 2 <= page && rounded < 4096) rounded *= 2;
      cfg.page_bytes = rounded;
      // --reps: repeat the measurement and feed the model the repetition
      // with the median locality — the measured quantity it consumes.
      std::vector<schemes::RunResult> runs;
      runs.reserve(static_cast<std::size_t>(options.reps));
      for (int rep = 0; rep < options.reps; ++rep) {
        core::Problem problem(Coord{sim_edge, sim_edge, sim_edge}, stencil);
        runs.push_back(scheme->run(problem, cfg));
      }
      std::vector<std::size_t> order(runs.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::nth_element(order.begin(), order.begin() + order.size() / 2,
                       order.end(), [&](std::size_t x, std::size_t y) {
                         return runs[x].traffic.locality() <
                                runs[y].traffic.locality();
                       });
      const schemes::RunResult& run = runs[order[order.size() / 2]];

      // Analytic traffic at the paper's scale, model evaluation.
      const Index paper_edge = edge_for(spec, spec.domain, n);
      perf::ModelInput in;
      in.machine = &spec.machine;
      in.stencil = &stencil;
      in.threads = n;
      in.traffic = scheme->estimate_traffic(spec.machine,
                                            Coord{paper_edge, paper_edge, paper_edge},
                                            stencil, n, options.paper_steps);
      in.locality = run.traffic.locality();
      in.node_demand.assign(run.traffic.bytes_from_node.begin(),
                            run.traffic.bytes_from_node.end());
      const auto [sync_base, sync_socket] = perf::scheme_sync_overhead(name);
      in.sync_overhead = sync_base;
      in.sync_per_socket = sync_socket;
      row.push_back(perf::model_scheme(in).gupdates_per_core);
      result.values[name].push_back(row.back());
    }
    table.add_row(std::to_string(n), std::move(row));
  }
  return result;
}

int figure_main(const FigureSpec& spec, int argc, char** argv) {
  try {
    const FigureOptions options = parse_options(argc, argv);
    const FigureResult result = run_figure(spec, options);
    result.table.print(std::cout);
    if (options.csv) result.table.print_csv(std::cout);
    if (!options.svg.empty()) {
      report::ChartSpec chart;
      chart.title = spec.id + ": " + spec.title + " [" + spec.machine.name + "]";
      chart.x_label = "number of cores";
      chart.y_label = "Gupdates/s per core";
      for (int n : result.cores) chart.x_ticks.push_back(std::to_string(n));
      for (const auto& name : spec.series)
        chart.series.push_back({name, result.values.at(name)});
      report::write_svg(chart, options.svg);
      std::cout << "\nwrote " << options.svg << '\n';
    }

    if (!spec.paper_gflops_at_max.empty()) {
      const core::StencilSpec stencil = figure_stencil(spec);
      const int max_cores = spec.cores.back();
      Table cmp("paper vs model: total GFLOPS at " + std::to_string(max_cores) + " cores");
      cmp.set_header({"series", "paper", "model", "model/paper"});
      for (const auto& [series, paper_gflops] : spec.paper_gflops_at_max) {
        const auto it = result.values.find(series);
        double model_gflops = std::nan("");
        if (it != result.values.end() && !it->second.empty()) {
          model_gflops = it->second.back() * static_cast<double>(stencil.flops()) *
                         static_cast<double>(max_cores);
        }
        cmp.add_row(series, {paper_gflops, model_gflops, model_gflops / paper_gflops});
      }
      std::cout << '\n';
      cmp.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

std::vector<std::string> constant_series() {
  return {"PeakDP", "LL1B0C", "nuCORALS", "nuCATS", "SysBIC", "NaiveSSE", "SysB0C"};
}

std::vector<std::string> banded_series() {
  return {"LL1B0C", "nuCORALS", "nuCATS", "SysBIC", "NaiveSSE", "SysB0C"};
}

std::vector<std::string> comparison_series() {
  return {"nuCORALS", "nuCATS", "CATS", "CORALS", "Pochoir", "PLuTo", "NaiveSSE"};
}

std::vector<int> opteron_cores() { return {1, 2, 4, 8, 16}; }

std::vector<int> xeon_cores() { return {1, 2, 4, 8, 16, 32}; }

}  // namespace nustencil::harness
