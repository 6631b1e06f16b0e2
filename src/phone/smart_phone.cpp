#include "phone/smart_phone.hpp"

#include <utility>

namespace contory::phone {

SmartPhone::SmartPhone(sim::Simulation& sim, PhoneProfile profile,
                       std::string name)
    : sim_(sim),
      profile_(std::move(profile)),
      name_(std::move(name)),
      energy_(sim),
      battery_(sim, energy_),
      rng_(sim.rng().Fork()) {
  energy_.SetComponentPower(component::kBase, profile_.base_power_mw);
}

SmartPhone::~SmartPhone() {
  sim_.Cancel(paging_timer_);
  sim_.Cancel(paging_off_timer_);
}

void SmartPhone::SetDisplayOn(bool on) {
  display_on_ = on;
  energy_.SetComponentPower(component::kDisplay,
                            on ? profile_.display_power_mw : 0.0);
  if (!on && backlight_on_) SetBacklightOn(false);
}

void SmartPhone::SetBacklightOn(bool on) {
  if (on && !display_on_) SetDisplayOn(true);
  backlight_on_ = on;
  energy_.SetComponentPower(component::kBacklight,
                            on ? profile_.backlight_power_mw : 0.0);
}

void SmartPhone::SetGsmRadioOn(bool on) {
  if (gsm_on_ == on) return;
  gsm_on_ = on;
  if (on) {
    SchedulePagingBurst();
  } else {
    sim_.Cancel(paging_timer_);
    sim_.Cancel(paging_off_timer_);
    paging_timer_ = paging_off_timer_ = sim::kInvalidTimer;
    energy_.SetComponentPower(component::kCellPaging, 0.0);
  }
}

void SmartPhone::SchedulePagingBurst() {
  // "peaks of 450-481 mW and every 50-60 sec" (Sec. 6.1).
  const auto period = SimDuration{rng_.UniformInt(
      profile_.cell_paging_period_lo.count(),
      profile_.cell_paging_period_hi.count())};
  paging_timer_ = sim_.ScheduleAfter(period, [this] {
    if (!gsm_on_) return;
    if (paging_suppressed_) {
      SchedulePagingBurst();
      return;
    }
    const double peak = rng_.Uniform(profile_.cell_paging_peak_mw_lo,
                                     profile_.cell_paging_peak_mw_hi);
    energy_.SetComponentPower(component::kCellPaging, peak);
    paging_off_timer_ = sim_.ScheduleAfter(profile_.cell_paging_burst, [this] {
      energy_.SetComponentPower(component::kCellPaging, 0.0);
    });
    SchedulePagingBurst();
  });
}

void SmartPhone::SetContoryRunning(bool running) {
  energy_.SetComponentPower(
      component::kContoryRuntime,
      running ? profile_.contory_runtime_power_mw : 0.0);
}

void SmartPhone::ChargeCpu(SimDuration busy) {
  if (busy <= SimDuration::zero()) return;
  energy_.AddEnergyJoules(profile_.cpu_active_power_mw / 1e3 *
                          ToSeconds(busy));
}

SimDuration SmartPhone::SerializationTime(std::size_t bytes) const {
  return SimDuration{static_cast<std::int64_t>(
      profile_.serialize_base_us +
      profile_.serialize_us_per_byte * static_cast<double>(bytes))};
}

}  // namespace contory::phone
