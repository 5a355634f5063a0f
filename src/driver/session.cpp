#include "driver/session.h"

#include <exception>
#include <new>
#include <utility>

namespace foray::driver {

Session::Session(std::string name, std::string source, SessionOptions opts)
    : name_(std::move(name)),
      source_(std::move(source)),
      opts_(std::move(opts)) {}

const util::Status& Session::run() {
  if (ran_) return result_.status;
  ran_ = true;
  try {
    result_ = core::run_pipeline(source_, opts_.pipeline);
  } catch (const util::StatusError& e) {
    // Carries its own classification (e.g. an injected sink fault).
    result_.status = e.status();
  } catch (const std::bad_alloc&) {
    result_.status =
        util::Status::failure(util::ErrorCode::kResourceExhausted,
                              "pipeline", 0, "out of memory");
  } catch (const std::exception& e) {
    // Anything else escaping the pipeline is a bug in this library.
    result_.status = util::Status::failure("internal", 0, e.what());
  }
  return result_.status;
}

void Session::adopt_model(core::ForayModel model) {
  FORAY_CHECK(!ran_, "adopt_model on a session that already ran");
  ran_ = true;
  result_.model = std::move(model);
  result_.model_built = true;
}

}  // namespace foray::driver
