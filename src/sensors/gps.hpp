// Bluetooth GPS receiver (the testbed's InsSirf III).
//
// The device registers an NMEA service in its SDDB; once a phone connects,
// it streams one NMEA burst per second over the link. Bursts are the
// paper's 340 bytes ("GPS-NMEA data are 340 bytes big") — real GGA + RMC
// sentences with checksums, padded with GSV filler to the observed size —
// which is what makes intSensor's periodic energy higher than the ad hoc
// case once BT segmentation applies (Table 2).
//
// PowerOff() reproduces the Fig. 5 failure: the device vanishes from the
// air; the phone's stack notices via its link supervision timeout, and the
// device stops being discoverable until PowerOn().
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "core/model/cxt_value.hpp"
#include "net/bluetooth.hpp"
#include "net/medium.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::sensors {

/// A decoded GPS fix, as the phone-side parser produces it.
struct GpsFix {
  GeoPoint position;
  double speed_knots = 0.0;
  double course_deg = 0.0;
  SimTime time{};
};

/// Builds one NMEA burst (GGA + RMC + GSV filler) padded to 340 bytes.
[[nodiscard]] std::string BuildNmeaBurst(const GpsFix& fix);

/// Parses a burst produced by BuildNmeaBurst (validates checksums).
[[nodiscard]] Result<GpsFix> ParseNmeaBurst(const std::string& burst);

/// NMEA sentence checksum ("*HH" suffix payload).
[[nodiscard]] unsigned NmeaChecksum(std::string_view sentence_body) noexcept;

struct GpsConfig {
  SimDuration fix_interval = std::chrono::seconds{1};
  /// Horizontal fix error applied to each fix (seeded).
  double fix_noise_m = 5.0;
};

/// The service name the receiver advertises.
inline constexpr const char* kGpsServiceName = "serial.nmea.gps";

class GpsDevice {
 public:
  /// `node` must already be registered in the medium; the device's fixes
  /// report that node's (moving) position. The device carries its own
  /// tiny device model for its BT radio (its battery is not the one the
  /// paper meters).
  GpsDevice(sim::Simulation& sim, net::BluetoothBus& bus, net::NodeId node,
            std::string name, GpsConfig config = {});

  /// Powers the receiver: BT discoverable, NMEA service registered,
  /// streaming to any connected link each fix interval.
  void PowerOn();
  /// The Fig. 5 failure switch.
  void PowerOff();
  [[nodiscard]] bool powered() const noexcept { return powered_; }

  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] net::BluetoothController& bt() noexcept { return *bt_; }

  /// Number of NMEA bursts streamed so far (tests/diagnostics).
  [[nodiscard]] std::uint64_t fixes_sent() const noexcept {
    return fixes_sent_;
  }

 private:
  void Tick();

  sim::Simulation& sim_;
  net::BluetoothBus& bus_;
  net::NodeId node_;
  std::string name_;
  GpsConfig config_;
  phone::SmartPhone device_model_;
  std::unique_ptr<net::BluetoothController> bt_;
  std::unique_ptr<sim::PeriodicTask> ticker_;
  Rng rng_;
  bool powered_ = false;
  net::Position last_pos_{};
  SimTime last_pos_time_{};
  bool has_last_pos_ = false;
  std::uint64_t fixes_sent_ = 0;
};

}  // namespace contory::sensors
