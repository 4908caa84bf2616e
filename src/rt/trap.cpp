#include "rt/trap.hpp"

#include "obs/log.hpp"
#include "obs/tracer.hpp"

namespace proteus::rt {

const char* trap_code(Trap t) noexcept {
  switch (t) {
    case Trap::kMemory: return "T001";
    case Trap::kSteps: return "T002";
    case Trap::kDepth: return "T003";
    case Trap::kDeadline: return "T004";
    case Trap::kCancelled: return "T005";
    case Trap::kInjectAlloc: return "T006";
    case Trap::kInjectKernel: return "T007";
    case Trap::kInjectOpt: return "T008";
  }
  return "T???";
}

const char* trap_reason(Trap t) noexcept {
  switch (t) {
    case Trap::kMemory: return "resident vector bytes exceeded the budget";
    case Trap::kSteps: return "element-work steps exceeded the budget";
    case Trap::kDepth: return "depth limit exceeded";
    case Trap::kDeadline: return "wall-clock deadline exceeded";
    case Trap::kCancelled: return "execution cancelled";
    case Trap::kInjectAlloc: return "injected allocation fault";
    case Trap::kInjectKernel: return "injected kernel fault";
    case Trap::kInjectOpt: return "injected optimizer fault";
  }
  return "unknown trap";
}

namespace {

std::string format_what(Trap trap, const std::string& detail,
                        const std::string& site, std::uint64_t bytes,
                        std::uint64_t steps, std::int64_t pc) {
  std::string out = "[";
  out += trap_code(trap);
  out += "] ";
  out += detail;
  out += " (site=";
  out += site;
  if (pc >= 0) {
    out += ", pc=";
    out += std::to_string(pc);
  }
  out += ", bytes=";
  out += std::to_string(bytes);
  out += ", steps=";
  out += std::to_string(steps);
  out += ")";
  return out;
}

}  // namespace

RuntimeTrap::RuntimeTrap(Trap trap, const std::string& detail,
                         std::string site, std::uint64_t bytes,
                         std::uint64_t steps, std::int64_t pc)
    : Error(format_what(trap, detail, site, bytes, steps, pc)),
      trap_(trap),
      site_(std::move(site)),
      bytes_(bytes),
      steps_(steps),
      pc_(pc) {
  // Every trap construction is an observability event: one structured
  // warn record (when logging is on) and one instant on the installed
  // tracer (when tracing is on). Both checks are a relaxed load + branch
  // when telemetry is off, so throwing stays cheap.
  if (obs::log_enabled(obs::LogLevel::kWarn)) {
    obs::log(obs::LogLevel::kWarn, "rt.trap",
             {{"code", code()},
              {"site", site_},
              {"bytes", bytes_},
              {"steps", steps_},
              {"pc", pc_},
              {"message", detail}});
  }
  if (obs::Tracer* t = obs::tracer(); t != nullptr) {
    t->instant("rt", code(), detail,
               {{"bytes", bytes_}, {"steps", steps_}});
  }
}

}  // namespace proteus::rt
