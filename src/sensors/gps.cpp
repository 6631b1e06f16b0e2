#include "sensors/gps.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "phone/phone_profiles.hpp"
#include "sensors/sensor.hpp"

namespace contory::sensors {
namespace {

constexpr std::size_t kNmeaBurstBytes = 340;

/// Formats degrees as NMEA ddmm.mmmm / dddmm.mmmm: the bytes printf's
/// "%02d%07.4f" / "%03d%07.4f" would write. GCC cannot bound "%07.4f" of
/// a double, so std::to_chars, which rounds the same way (exactly, ties
/// to even), writes the minutes into a bounded buffer.
void FormatNmeaCoord(double deg, bool is_lon, char* buf, std::size_t len,
                     char* hemi) {
  const double a = std::abs(deg);
  const int whole = static_cast<int>(a);
  char minutes[16];
  const char* end = std::to_chars(minutes, std::end(minutes),
                                  (a - whole) * 60.0,
                                  std::chars_format::fixed, 4).ptr;
  const int n = static_cast<int>(end - minutes);  // "mm.mmmm" or "m.mmmm"
  std::snprintf(buf, len, "%0*d%s%.*s", is_lon ? 3 : 2, whole,
                n < 7 ? "0" : "", n, minutes);
  if (is_lon) {
    *hemi = deg >= 0 ? 'E' : 'W';
  } else {
    *hemi = deg >= 0 ? 'N' : 'S';
  }
}

double ParseNmeaCoord(const std::string& field, char hemi, bool is_lon) {
  const double raw = std::strtod(field.c_str(), nullptr);
  const int deg_div = is_lon ? 100 : 100;
  const int whole = static_cast<int>(raw) / deg_div;
  const double minutes = raw - whole * deg_div;
  double deg = whole + minutes / 60.0;
  if (hemi == 'S' || hemi == 'W') deg = -deg;
  return deg;
}

std::string WithChecksum(const std::string& body) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "*%02X\r\n", NmeaChecksum(body));
  return "$" + body + buf;
}

std::vector<std::string> SplitFields(const std::string& body) {
  std::vector<std::string> fields;
  std::string cur;
  for (const char c : body) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  return fields;
}

}  // namespace

unsigned NmeaChecksum(std::string_view body) noexcept {
  unsigned x = 0;
  for (const char c : body) x ^= static_cast<unsigned char>(c);
  return x & 0xff;
}

std::string BuildNmeaBurst(const GpsFix& fix) {
  const double secs = ToSeconds(fix.time);
  const int hh = static_cast<int>(secs / 3600) % 24;
  const int mm = static_cast<int>(secs / 60) % 60;
  const double ss = std::fmod(secs, 60.0);

  char lat[32], lon[32];
  char lat_h = 'N', lon_h = 'E';
  FormatNmeaCoord(fix.position.lat, false, lat, sizeof lat, &lat_h);
  FormatNmeaCoord(fix.position.lon, true, lon, sizeof lon, &lon_h);

  char body[160];
  std::snprintf(body, sizeof body,
                "GPGGA,%02d%02d%05.2f,%s,%c,%s,%c,1,08,1.0,2.0,M,20.0,M,,",
                hh, mm, ss, lat, lat_h, lon, lon_h);
  std::string burst = WithChecksum(body);

  std::snprintf(body, sizeof body,
                "GPRMC,%02d%02d%05.2f,A,%s,%c,%s,%c,%05.1f,%05.1f,010706,,",
                hh, mm, ss, lat, lat_h, lon, lon_h, fix.speed_knots,
                fix.course_deg);
  burst += WithChecksum(body);

  // GSV satellite filler until the burst reaches the observed 340 bytes.
  int msg = 1;
  while (burst.size() < kNmeaBurstBytes) {
    std::snprintf(body, sizeof body,
                  "GPGSV,3,%d,08,01,40,083,46,02,17,308,41,12,07,344,39,14,"
                  "22,228,45",
                  msg++);
    std::string sentence = WithChecksum(body);
    if (burst.size() + sentence.size() > kNmeaBurstBytes) {
      sentence.resize(kNmeaBurstBytes - burst.size());
    }
    burst += sentence;
  }
  return burst;
}

Result<GpsFix> ParseNmeaBurst(const std::string& burst) {
  // Find the RMC sentence; it carries position, speed and course.
  const std::size_t start = burst.find("$GPRMC");
  if (start == std::string::npos) {
    return InvalidArgument("no GPRMC sentence in burst");
  }
  const std::size_t star = burst.find('*', start);
  const std::size_t end = burst.find("\r\n", start);
  if (star == std::string::npos || end == std::string::npos || star > end) {
    return InvalidArgument("malformed GPRMC sentence");
  }
  const std::string nmea_body = burst.substr(start + 1, star - start - 1);
  const unsigned want =
      static_cast<unsigned>(std::strtoul(burst.substr(star + 1, 2).c_str(),
                                         nullptr, 16));
  if (NmeaChecksum(nmea_body) != want) {
    return InvalidArgument("GPRMC checksum mismatch");
  }
  const auto fields = SplitFields(nmea_body);
  // GPRMC,time,A,lat,N,lon,E,speed,course,date,,
  if (fields.size() < 10 || fields[2] != "A") {
    return Unavailable("GPRMC reports no valid fix");
  }
  GpsFix fix;
  fix.position.lat = ParseNmeaCoord(fields[3], fields[4].empty() ? 'N'
                                                  : fields[4][0], false);
  fix.position.lon = ParseNmeaCoord(fields[5], fields[6].empty() ? 'E'
                                                  : fields[6][0], true);
  fix.speed_knots = std::strtod(fields[7].c_str(), nullptr);
  fix.course_deg = std::strtod(fields[8].c_str(), nullptr);
  const double t = std::strtod(fields[1].c_str(), nullptr);
  const int hh = static_cast<int>(t) / 10000;
  const int mm = (static_cast<int>(t) / 100) % 100;
  const double ss = std::fmod(t, 100.0);
  fix.time = kSimEpoch + FromSeconds(hh * 3600.0 + mm * 60.0 + ss);
  return fix;
}

GpsDevice::GpsDevice(sim::Simulation& sim, net::BluetoothBus& bus,
                     net::NodeId node, std::string name, GpsConfig config)
    : sim_(sim),
      bus_(bus),
      node_(node),
      name_(std::move(name)),
      config_(config),
      // The receiver's own electronics: an un-metered device model whose
      // only job is powering a BT radio in the simulation.
      device_model_(sim, phone::Nokia6630(), name_ + "-dev"),
      rng_(sim.rng().Fork()) {
  bt_ = std::make_unique<net::BluetoothController>(sim_, bus_, device_model_,
                                                   node_);
}

void GpsDevice::PowerOn() {
  if (powered_) return;
  powered_ = true;
  bt_->SetFailed(false);
  bt_->SetEnabled(true);
  bt_->RegisterService({kGpsServiceName, {}}, [](Result<net::ServiceHandle>) {
  });
  ticker_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.fix_interval, [this] { Tick(); });
}

void GpsDevice::PowerOff() {
  if (!powered_) return;
  powered_ = false;
  ticker_.reset();
  bt_->SetFailed(true);  // vanish from the air (Fig. 5)
}

void GpsDevice::Tick() {
  const auto pos = bus_.medium().GetPosition(node_);
  if (!pos.ok()) return;

  // Derive speed/course from consecutive positions.
  GpsFix fix;
  if (has_last_pos_) {
    const double dt = ToSeconds(sim_.Now() - last_pos_time_);
    if (dt > 0) {
      const double dx = pos->x - last_pos_.x;
      const double dy = pos->y - last_pos_.y;
      const double mps = std::hypot(dx, dy) / dt;
      fix.speed_knots = mps * 1.9438;
      fix.course_deg = std::fmod(std::atan2(dx, dy) * 180.0 / 3.14159265 +
                                     360.0,
                                 360.0);
    }
  }
  last_pos_ = *pos;
  last_pos_time_ = sim_.Now();
  has_last_pos_ = true;

  // Horizontal fix error.
  net::Position noisy = *pos;
  noisy.x += rng_.Normal(0.0, config_.fix_noise_m);
  noisy.y += rng_.Normal(0.0, config_.fix_noise_m);
  fix.position = ToGeo(noisy);
  fix.time = sim_.Now();

  const std::string burst = BuildNmeaBurst(fix);
  std::vector<std::byte> payload(burst.size());
  std::memcpy(payload.data(), burst.data(), burst.size());

  // Stream to every connected central.
  for (const net::BtLinkId link : bt_->AliveLinks()) {
    bt_->Send(link, payload);
    ++fixes_sent_;
  }
}

}  // namespace contory::sensors
