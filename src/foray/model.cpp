#include "foray/model.h"

#include <set>

#include "util/status.h"

namespace foray::core {

namespace {

void collect(const LoopNode& node, std::vector<int>* path,
             std::vector<int64_t>* trips, const FilterOptions& filter,
             ForayModel* model, ModelBuildStats* stats) {
  for (const auto& ref : node.refs()) {
    ++stats->total_refs;
    switch (classify_reference(*ref, filter)) {
      case FilterReason::Kept: {
        ++stats->kept;
        ModelReference mr;
        mr.instr = ref->instr;
        mr.loop_path = *path;
        mr.trips = *trips;
        mr.fn = finalize(ref->affine);
        mr.exec_count = ref->exec_count;
        mr.footprint = ref->footprint_size();
        mr.footprint_saturated = ref->footprint_saturated();
        mr.access_size = ref->access_size;
        mr.has_read = ref->has_read;
        mr.has_write = ref->has_write;
        FORAY_CHECK(mr.fn.n() == mr.n(),
                    "affine function arity must match loop path");
        model->refs.push_back(std::move(mr));
        break;
      }
      case FilterReason::NonAnalyzable:
        ++stats->dropped_non_analyzable;
        break;
      case FilterReason::NoIterator:
        ++stats->dropped_no_iterator;
        break;
      case FilterReason::TooFewExecs:
        ++stats->dropped_exec;
        break;
      case FilterReason::TooFewLocations:
        ++stats->dropped_locations;
        break;
      case FilterReason::SystemReference:
        ++stats->dropped_system;
        break;
    }
  }
  for (const auto& child : node.children()) {
    path->push_back(child->loop_id());
    trips->push_back(child->max_trip);
    collect(*child, path, trips, filter, model, stats);
    path->pop_back();
    trips->pop_back();
  }
}

}  // namespace

int ForayModel::distinct_loops() const {
  std::set<int> sites;
  for (const auto& r : refs) {
    for (int id : r.emitted_loop_path()) sites.insert(id);
  }
  return static_cast<int>(sites.size());
}

int ForayModel::loop_contexts() const {
  std::set<std::vector<int>> contexts;
  for (const auto& r : refs) {
    std::vector<int> prefix;
    for (int id : r.emitted_loop_path()) {
      prefix.push_back(id);
      contexts.insert(prefix);
    }
  }
  return static_cast<int>(contexts.size());
}

uint64_t ForayModel::total_accesses() const {
  uint64_t n = 0;
  for (const auto& r : refs) n += r.exec_count;
  return n;
}

ForayModel build_model(const Extractor& extractor,
                       const FilterOptions& filter, ModelBuildStats* stats) {
  ForayModel model;
  ModelBuildStats tally;
  std::vector<int> path;
  std::vector<int64_t> trips;
  collect(*extractor.tree().root(), &path, &trips, filter, &model, &tally);
  if (stats != nullptr) *stats = tally;
  return model;
}

}  // namespace foray::core
