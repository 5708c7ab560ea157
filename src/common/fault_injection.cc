#include "common/fault_injection.h"

#include "common/string_util.h"

namespace msql {

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::ArmAt(int64_t fail_at, ErrorCode code) {
  {
    std::lock_guard<std::mutex> lock(site_mu_);
    site_.clear();
    fired_site_.clear();
  }
  code_.store(code, std::memory_order_relaxed);
  fired_.store(false, std::memory_order_relaxed);
  fire_count_.store(0, std::memory_order_relaxed);
  fail_at_.store(fail_at, std::memory_order_relaxed);
  site_budget_.store(-1, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void FaultInjector::ArmSite(std::string site, int64_t times, ErrorCode code) {
  {
    std::lock_guard<std::mutex> lock(site_mu_);
    site_ = std::move(site);
    fired_site_.clear();
  }
  code_.store(code, std::memory_order_relaxed);
  fired_.store(false, std::memory_order_relaxed);
  fire_count_.store(0, std::memory_order_relaxed);
  fail_at_.store(0, std::memory_order_relaxed);
  site_budget_.store(times, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  active_.store(false, std::memory_order_release);
  fired_.store(false, std::memory_order_relaxed);
  fire_count_.store(0, std::memory_order_relaxed);
  fail_at_.store(0, std::memory_order_relaxed);
  site_budget_.store(-1, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(site_mu_);
  site_.clear();
  fired_site_.clear();
}

std::string FaultInjector::fired_site() const {
  std::lock_guard<std::mutex> lock(site_mu_);
  return fired_site_;
}

Status FaultInjector::Checkpoint(const char* site) {
  int64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (site_budget_.load(std::memory_order_relaxed) >= 0) {
    // Site mode: fire on every hit of the named checkpoint while the fire
    // budget lasts. The name compare takes the mutex, but only checkpoints
    // reached while a chaos test is armed pay it.
    {
      std::lock_guard<std::mutex> lock(site_mu_);
      if (site_ != site) return Status::Ok();
    }
    if (site_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      site_budget_.fetch_add(1, std::memory_order_relaxed);  // floor at 0
      return Status::Ok();
    }
    fired_.store(true, std::memory_order_relaxed);
    fire_count_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(site_mu_);
      if (fired_site_.empty()) fired_site_ = site;
    }
    return Status(code_.load(std::memory_order_relaxed),
                  StrCat("injected fault at checkpoint '", site, "'"));
  }
  // Ordinal mode: fire exactly once, at the fail_at_th checkpoint reached.
  if (hit != fail_at_.load(std::memory_order_relaxed)) return Status::Ok();
  fired_.store(true, std::memory_order_relaxed);
  fire_count_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(site_mu_);
    fired_site_ = site;
  }
  return Status(code_.load(std::memory_order_relaxed),
                StrCat("injected fault at checkpoint '", site, "' (hit ", hit,
                       ")"));
}

}  // namespace msql
