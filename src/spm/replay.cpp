#include "spm/replay.h"

#include <algorithm>
#include <map>

#include "foray/emitter.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/classify_sink.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "util/strings.h"

namespace foray::spm {

namespace {

/// Execution count of the emitted (rectangular, run-once) nest.
uint64_t trip_product(const core::ModelReference& ref) {
  uint64_t n = 1;
  for (int64_t t : ref.emitted_trips()) {
    if (t <= 0) return 0;
    n *= static_cast<uint64_t>(t);
  }
  return n;
}

/// The model as the emitted program realizes it: every reference's nest
/// runs exactly once with its recorded trip counts.
core::ForayModel materialize(const core::ForayModel& model) {
  core::ForayModel m = model;
  for (auto& ref : m.refs) ref.exec_count = trip_product(ref);
  return m;
}

void check_eq(std::vector<std::string>* mismatches, const std::string& what,
              uint64_t simulated, uint64_t analytic) {
  if (simulated == analytic) return;
  mismatches->push_back(what + ": simulated " + std::to_string(simulated) +
                        " != analytic " + std::to_string(analytic));
}

}  // namespace

std::vector<sim::ClassifyingSink::Region> replay_regions(
    const core::ForayModel& model, const Selection& selection,
    const minic::Program& prog) {
  // Address map: every emitted array, with each selected reference's
  // main array paired to its spm_* buffer.
  auto names = core::assign_array_names(model);
  std::map<std::string, int> buffer_of;  // main/spm array name -> pair id
  std::map<std::string, bool> is_spm;
  for (size_t b = 0; b < selection.chosen.size(); ++b) {
    const size_t ri = selection.chosen[b].ref_index;
    FORAY_CHECK(ri < names.size(), "selection references unknown ref");
    buffer_of[names[ri]] = static_cast<int>(b);
    is_spm[names[ri]] = false;
    buffer_of[spm_buffer_name(names[ri])] = static_cast<int>(b);
    is_spm[spm_buffer_name(names[ri])] = true;
  }
  std::vector<sim::ClassifyingSink::Region> regions;
  for (const auto& g : sim::global_regions(prog)) {
    sim::ClassifyingSink::Region r;
    r.base = g.base;
    r.size = g.size;
    auto it = buffer_of.find(g.name);
    if (it != buffer_of.end()) {
      r.buffer = it->second;
      r.is_spm = is_spm[g.name];
    }
    regions.push_back(r);
  }
  return regions;
}

ReplaySimulation simulate_replay(const core::ForayModel& model,
                                 const Selection& selection,
                                 std::string_view source,
                                 const sim::RunOptions& run) {
  ReplaySimulation out;
  // The emitted program through the same front end as any user program.
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  if (!prog) {
    out.status = util::Status::failure("replay-frontend", std::move(diags));
    return out;
  }
  instrument::annotate_loops(prog.get());

  sim::ClassifyingSink sink(replay_regions(model, selection, *prog),
                            static_cast<int>(selection.chosen.size()));
  sim::RunOptions ropts = run;
  ropts.replay_view = true;
  const sim::RunResult result = sim::run_program(*prog, &sink, ropts);
  out.status = result.status;
  if (!result.ok()) return out;
  out.buffers = sink.buffers();
  out.spm_accesses = sink.total_spm_accesses();
  out.main_accesses = sink.total_main_accesses();
  out.transfer_words = sink.total_transfer_words();
  out.unclassified_accesses = sink.unclassified_accesses();
  out.steps = result.steps;
  out.view_records = sink.records();
  return out;
}

ReplayReport lock_replay(const core::ForayModel& model,
                         const Selection& selection, const DseOptions& dse,
                         const ReplaySimulation& simulated) {
  ReplayReport report;
  report.status = simulated.status;
  if (!report.status.ok()) return report;
  report.ran = true;

  // Analytic side: the same selection re-derived on the materialized
  // geometry, evaluated through the very functions the DSE used.
  const core::ForayModel mat = materialize(model);
  Selection mat_sel;
  for (const auto& c : selection.chosen) {
    mat_sel.chosen.push_back(candidate_at(mat.refs[c.ref_index],
                                          c.ref_index, c.level));
    mat_sel.bytes_used += mat_sel.chosen.back().size_bytes;
  }
  const EnergyReport ana = evaluate_selection(mat, mat_sel, dse);
  const EnergyReport prof = evaluate_selection(model, selection, dse);

  report.ana_spm_accesses = ana.spm_accesses;
  report.ana_main_accesses = ana.dram_accesses;
  report.ana_transfer_words = ana.transfer_words;
  report.model_spm_accesses = prof.spm_accesses;
  report.model_main_accesses = prof.dram_accesses;
  report.model_transfer_words = prof.transfer_words;
  report.rectangular =
      ana.spm_accesses == prof.spm_accesses &&
      ana.dram_accesses == prof.dram_accesses &&
      ana.transfer_words == prof.transfer_words;

  report.sim_spm_accesses = simulated.spm_accesses;
  report.sim_main_accesses = simulated.main_accesses;
  report.sim_transfer_words = simulated.transfer_words;
  report.unclassified_accesses = simulated.unclassified_accesses;

  FORAY_CHECK(simulated.buffers.size() == selection.chosen.size(),
              "simulated side is of another selection");
  for (size_t b = 0; b < selection.chosen.size(); ++b) {
    const auto& cand = mat_sel.chosen[b];
    const auto& sim = simulated.buffers[b];
    ReplayBuffer rb;
    rb.ref_index = cand.ref_index;
    rb.level = cand.level;
    rb.sliding = cand.sliding_window;
    rb.sim_spm_accesses = sim.spm_accesses;
    rb.sim_main_accesses = sim.main_accesses;
    rb.sim_fill_events = sim.fill_events;
    rb.sim_fill_bytes = sim.fill_bytes;
    rb.sim_writeback_events = sim.writeback_events;
    rb.sim_writeback_bytes = sim.writeback_bytes;
    rb.sim_transfer_words = sim.transfer_words;
    rb.ana_spm_accesses = cand.spm_accesses;
    rb.ana_transfer_words = cand.transfer_words;
    report.buffers.push_back(rb);

    const std::string tag =
        "buffer " + std::to_string(b) + " (ref " +
        std::to_string(cand.ref_index) + " level " +
        std::to_string(cand.level) + ")";
    check_eq(&report.mismatches, tag + " spm accesses",
             rb.sim_spm_accesses, rb.ana_spm_accesses);
    check_eq(&report.mismatches, tag + " transfer words",
             rb.sim_transfer_words, rb.ana_transfer_words);
    check_eq(&report.mismatches, tag + " main-memory program accesses",
             rb.sim_main_accesses, 0);
  }
  check_eq(&report.mismatches, "total spm accesses",
           report.sim_spm_accesses, report.ana_spm_accesses);
  check_eq(&report.mismatches, "total main-memory accesses",
           report.sim_main_accesses, report.ana_main_accesses);
  check_eq(&report.mismatches, "total transfer words",
           report.sim_transfer_words, report.ana_transfer_words);
  check_eq(&report.mismatches, "unclassified data accesses",
           report.unclassified_accesses, 0);
  return report;
}

ReplayReport replay_selection(const core::ForayModel& model,
                              const Selection& selection,
                              const ReplayOptions& opts) {
  const ReplaySimulation simulated = simulate_replay(
      model, selection, emit_transformed(model, selection), opts.run);
  return lock_replay(model, selection, opts.dse, simulated);
}

std::string describe_replay_report(const ReplayReport& report,
                                   const core::ForayModel& model) {
  std::string out;
  if (!report.status.ok()) {
    return "replay: FAILED to execute the transformed program: " +
           report.status.message() + "\n";
  }
  auto names = core::assign_array_names(model);
  util::append_format(
      &out,
      "replay: %zu buffer(s), %llu SPM / %llu main accesses, "
      "%llu transfer word(s) simulated%s\n",
      report.buffers.size(),
      static_cast<unsigned long long>(report.sim_spm_accesses),
      static_cast<unsigned long long>(report.sim_main_accesses),
      static_cast<unsigned long long>(report.sim_transfer_words),
      report.rectangular ? ""
                         : " (non-rectangular model: locked to materialized "
                           "geometry)");
  for (const auto& b : report.buffers) {
    util::append_format(
        &out,
        "  %s: %llu accesses, %llu fill(s) %lluB, "
        "%llu writeback(s) %lluB, %llu word(s)%s\n",
        b.ref_index < names.size() ? names[b.ref_index].c_str() : "?",
        static_cast<unsigned long long>(b.sim_spm_accesses),
        static_cast<unsigned long long>(b.sim_fill_events),
        static_cast<unsigned long long>(b.sim_fill_bytes),
        static_cast<unsigned long long>(b.sim_writeback_events),
        static_cast<unsigned long long>(b.sim_writeback_bytes),
        static_cast<unsigned long long>(b.sim_transfer_words),
        b.sliding ? ", sliding" : "");
  }
  if (report.matches()) {
    out += "  analytic counters CONFIRMED by simulated traffic\n";
  } else {
    for (const auto& m : report.mismatches) {
      out += "  MISMATCH " + m + "\n";
    }
  }
  return out;
}

}  // namespace foray::spm
