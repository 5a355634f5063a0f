#include "foray/pipeline.h"

#include <algorithm>
#include <chrono>

#include "minic/parser.h"
#include "sim/interpreter.h"
#include "spm/address_stream.h"
#include "spm/cache_sim.h"
#include "util/strings.h"

namespace foray::core {

util::Status frontend_phase(std::string_view source, PipelineResult* result) {
  util::DiagList diags;
  result->program = minic::parse_program(source, &diags);
  if (!diags.empty()) {
    // A program that fails to parse or type-check is the user's fault,
    // never ours: classify as invalid_input so the CLI/sweep map it to
    // the right exit code / error row.
    result->status = util::Status::failure(util::ErrorCode::kInvalidInput,
                                           "parse", std::move(diags));
    return result->status;
  }
  result->sema = minic::run_sema(result->program.get(), &diags);
  if (!diags.empty()) {
    result->status = util::Status::failure(util::ErrorCode::kInvalidInput,
                                           "sema", std::move(diags));
    return result->status;
  }
  return result->status;
}

util::Status instrument_phase(PipelineResult* result) {
  FORAY_CHECK(result->program != nullptr,
              "instrument_phase requires frontend_phase");
  result->loop_sites = instrument::annotate_loops(result->program.get());
  return result->status;
}

util::Status profile_phase(const PipelineOptions& opts,
                           PipelineResult* result) {
  FORAY_CHECK(result->program != nullptr,
              "profile_phase requires instrument_phase");
  // The extractor IS the sink: it analyzes each chunk as the engine
  // flushes it, so no trace is ever materialized.
  result->extractor = std::make_unique<Extractor>(opts.extractor);
  sim::RunOptions run = opts.run;
  if (run.budget.has_deadline() &&
      run.budget.clock_start == std::chrono::steady_clock::time_point{}) {
    run.budget.clock_start = std::chrono::steady_clock::now();
  }
  // Elision needs Nloc >= 2: a global scalar has one address, which
  // Nloc 1 would keep.
  const bool elide = !opts.census && opts.filter.min_locations >= 2;
  run.elide_below_bases =
      elide ? static_cast<uint32_t>(std::min<uint64_t>(
                  opts.filter.min_locations, sim::kMaxElisionBases))
            : 0;
  result->run =
      sim::run_program(*result->program, result->extractor.get(), run);
  if (result->run.elision_stopped) {
    // Some function reached that many frame bases, so an elided site
    // might have reached Nloc locations: trace everything.
    result->extractor = std::make_unique<Extractor>(opts.extractor);
    run.elide_below_bases = 0;
    result->run =
        sim::run_program(*result->program, result->extractor.get(), run);
  }
  result->trace_records = result->extractor->records_processed();
  if (!result->run.ok()) result->status = result->run.status;
  return result->status;
}

util::Status extract_phase(const PipelineOptions& opts,
                           PipelineResult* result) {
  FORAY_CHECK(result->extractor != nullptr,
              "extract_phase requires profile_phase");
  result->model =
      build_model(*result->extractor, opts.filter, &result->build_stats);
  result->foray_source = emit_minic(result->model);
  result->foray_paper_style = emit_paper_style(result->model);
  result->model_built = true;
  return result->status;
}

SpmReport solve_spm(const ForayModel& model, const SpmPhaseOptions& opts,
                    const std::vector<spm::BufferCandidate>* candidates) {
  std::vector<spm::BufferCandidate> enumerated;
  if (candidates == nullptr) {
    enumerated = spm::enumerate_candidates(model, opts.reuse);
    candidates = &enumerated;
  }
  SpmReport report;
  report.capacity = opts.dse.spm_capacity;
  report.candidate_count = candidates->size();
  report.exact = spm::select_buffers(*candidates, opts.dse);
  report.greedy = spm::select_buffers_greedy(*candidates, opts.dse);
  report.baseline = spm::evaluate_baseline(model, opts.dse.energy);
  report.with_spm = spm::evaluate_selection(model, report.exact, opts.dse);
  return report;
}

std::vector<CacheCellCounts> simulate_caches(
    const ForayModel& model, const std::vector<CacheCell>& cells) {
  std::vector<CacheCellCounts> out(cells.size());
  // Every cache of every good cell, packed into passes over the stream
  // whose tables together hold at most kMaxCacheLines lines.
  struct Slot {
    size_t cell;
    size_t way_index;  ///< position in the cell's assocs
    spm::CacheConfig cfg;
  };
  std::vector<std::vector<Slot>> passes(1);
  uint64_t pass_lines = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const CacheCell& cell = cells[i];
    std::vector<Slot> slots;
    for (size_t a = 0; a < cell.assocs.size(); ++a) {
      const spm::CacheConfig cfg{cell.capacity, cell.line_bytes,
                                 cell.assocs[a]};
      const std::string why = spm::cache_geometry_error(cfg);
      if (!why.empty()) {
        out[i].status = util::Status::failure(util::ErrorCode::kInvalidInput,
                                              "spm-solve", 0, why);
        break;
      }
      slots.push_back(Slot{i, a, cfg});
    }
    if (!out[i].status.ok()) continue;
    out[i].caches.resize(slots.size());
    for (const Slot& s : slots) {
      const uint64_t lines = s.cfg.size_bytes / s.cfg.line_bytes;
      if (pass_lines + lines > spm::kMaxCacheLines) {
        passes.emplace_back();
        pass_lines = 0;
      }
      passes.back().push_back(s);
      pass_lines += lines;
    }
  }
  for (std::vector<Slot>& pass : passes) {
    if (pass.empty()) continue;
    // The cascade (spm/cache_sim.h): per line size, caches from the
    // fewest sets to the most. An address walks each chain until a cache
    // holds its block as MRU; that cache and the rest of the chain hit
    // unchanged, counted in stops[] and credited once the stream ends.
    const auto sets = [](const spm::CacheConfig& c) {
      return c.size_bytes / (c.line_bytes * static_cast<uint32_t>(c.assoc));
    };
    std::stable_sort(pass.begin(), pass.end(),
                     [&sets](const Slot& a, const Slot& b) {
                       if (a.cfg.line_bytes != b.cfg.line_bytes) {
                         return a.cfg.line_bytes < b.cfg.line_bytes;
                       }
                       return sets(a.cfg) < sets(b.cfg);
                     });
    std::vector<spm::CacheSim> sims;
    std::vector<size_t> chain_ends;  ///< one past each line size's chain
    sims.reserve(pass.size());
    for (size_t k = 0; k < pass.size(); ++k) {
      sims.emplace_back(pass[k].cfg);
      if (k + 1 == pass.size() ||
          pass[k + 1].cfg.line_bytes != pass[k].cfg.line_bytes) {
        chain_ends.push_back(k + 1);
      }
    }
    std::vector<uint64_t> stops(pass.size(), 0);
    // A folded iteration's second walk (spm::for_each_address_folded) is
    // booked again by its delta: each cache's hits and misses, and the
    // stops, pushed at mark() and scaled at repeat(). Folds nest, so the
    // marks are a stack of pass.size() triples.
    std::vector<uint64_t> marks;
    spm::for_each_address_folded(
        model,
        [&](uint32_t addr) {
          size_t k = 0;
          for (const size_t end : chain_ends) {
            for (; k < end; ++k) {
              if (sims[k].is_mru(addr)) {
                ++stops[k];
                break;
              }
              sims[k].access(addr);
            }
            k = end;
          }
        },
        [&] {
          for (size_t k = 0; k < pass.size(); ++k) {
            marks.insert(marks.end(),
                         {sims[k].hits(), sims[k].misses(), stops[k]});
          }
        },
        [&](uint64_t times) {
          const size_t base = marks.size() - 3 * pass.size();
          const uint64_t* was = &marks[base];
          for (size_t k = 0; k < pass.size(); ++k, was += 3) {
            sims[k].credit_hits(times * (sims[k].hits() - was[0]));
            sims[k].credit_misses(times * (sims[k].misses() - was[1]));
            stops[k] += times * (stops[k] - was[2]);
          }
          marks.resize(base);
        });
    size_t begin = 0;
    for (const size_t end : chain_ends) {
      uint64_t mru_hits = 0;
      for (size_t k = begin; k < end; ++k) {
        mru_hits += stops[k];
        sims[k].credit_hits(mru_hits);
        out[pass[k].cell].caches[pass[k].way_index] =
            SpmReport::CacheComparison{pass[k].cfg.assoc, sims[k].hits(),
                                       sims[k].misses(), 0.0};
      }
      begin = end;
    }
  }
  return out;
}

void price_caches(const SpmPhaseOptions& opts,
                  std::vector<SpmReport::CacheComparison>* caches) {
  for (SpmReport::CacheComparison& c : *caches) {
    c.energy_nj = spm::cache_energy_nj(
        spm::CacheConfig{opts.dse.spm_capacity, opts.cache_line_bytes,
                         c.assoc},
        c.hits, c.misses, opts.dse.energy);
  }
}

PipelineResult run_pipeline(std::string_view source,
                            const PipelineOptions& opts) {
  PipelineResult result;
  if (!frontend_phase(source, &result).ok()) return result;
  if (!instrument_phase(&result).ok()) return result;
  if (!profile_phase(opts, &result).ok()) return result;
  extract_phase(opts, &result);
  return result;
}

std::string describe_spm_report(const SpmReport& report,
                                const ForayModel& model) {
  std::string out;
  util::append_format(&out,
                      "SPM capacity %uB: %zu candidate buffer(s), %zu "
                      "chosen\n",
                      report.capacity, report.candidate_count,
                      report.exact.chosen.size());
  auto names = assign_array_names(model);
  for (const auto& c : report.exact.chosen) {
    const auto& ref = model.refs[c.ref_index];
    util::append_format(
        &out, "  %s (%s): %lluB buffer over innermost %d loop(s)%s\n",
        names[c.ref_index].c_str(), describe_reference(ref).c_str(),
        static_cast<unsigned long long>(c.size_bytes), c.level,
        c.sliding_window ? ", sliding window" : "");
  }
  util::append_format(&out, "  bytes used: %llu / %u\n",
                      static_cast<unsigned long long>(report.exact.bytes_used),
                      report.capacity);
  util::append_format(&out,
                      "  predicted saving: %.1f nJ (%.1f%% of the all-DRAM "
                      "baseline)\n",
                      report.exact.saved_nj, report.with_spm.savings_pct());
  util::append_format(
      &out, "  greedy heuristic would save %.1f nJ with %zu buffer(s)\n",
      report.greedy.saved_nj, report.greedy.chosen.size());
  for (const auto& c : report.caches) {
    const uint64_t accesses = c.hits + c.misses;
    util::append_format(
        &out,
        "  cache %d-way %uB: %.1f%% hit rate, %.1f nJ (%.1f%% of the "
        "all-DRAM baseline)\n",
        c.assoc, report.capacity,
        accesses != 0 ? 100.0 * static_cast<double>(c.hits) /
                            static_cast<double>(accesses)
                      : 0.0,
        c.energy_nj,
        report.baseline.baseline_nj > 0.0
            ? 100.0 * c.energy_nj / report.baseline.baseline_nj
            : 100.0);
  }
  return out;
}

}  // namespace foray::core
