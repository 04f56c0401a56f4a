// Storage device layout.
//
// The paper reduces I/O contention by placing (1) data and temporary files,
// (2) indices, and (3) logs on three separate RAID devices (section 4.5.3).
// The engine tags every page it touches with a role; the layout maps roles to
// physical devices, and simulation mode gives each physical device its own
// queueing resource so co-located roles genuinely contend.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace sky::storage {

enum class IoRole : int { kData = 0, kIndex = 1, kLog = 2 };

constexpr int kIoRoleCount = 3;

struct DeviceLayout {
  // Physical device index serving each role (index by IoRole).
  std::array<int, kIoRoleCount> role_device{0, 0, 0};
  int physical_devices = 1;

  // The paper's production layout: three separate RAID devices.
  static DeviceLayout separate_raids() {
    return DeviceLayout{{0, 1, 2}, 3};
  }
  // Everything on one device (the untuned baseline in the I/O ablation).
  static DeviceLayout single_raid() { return DeviceLayout{{0, 0, 0}, 1}; }

  int device_for(IoRole role) const {
    return role_device[static_cast<size_t>(role)];
  }

  std::string describe() const {
    return physical_devices == 1
               ? "single shared RAID"
               : (physical_devices == 3 ? "separate data/index/log RAIDs"
                                        : "custom layout");
  }
};

// I/O tally per role (pages from the sim server's cache model, log bytes
// from engine commits), priced and queued per device in simulation.
struct IoTally {
  std::array<int64_t, kIoRoleCount> pages_written{0, 0, 0};
  std::array<int64_t, kIoRoleCount> pages_read{0, 0, 0};
  int64_t log_bytes_flushed = 0;

  void add_write(IoRole role, int64_t pages = 1) {
    pages_written[static_cast<size_t>(role)] += pages;
  }
  void add_read(IoRole role, int64_t pages = 1) {
    pages_read[static_cast<size_t>(role)] += pages;
  }
  IoTally& operator+=(const IoTally& other) {
    for (size_t i = 0; i < kIoRoleCount; ++i) {
      pages_written[i] += other.pages_written[i];
      pages_read[i] += other.pages_read[i];
    }
    log_bytes_flushed += other.log_bytes_flushed;
    return *this;
  }
  // Difference since an earlier snapshot.
  IoTally since(const IoTally& baseline) const {
    IoTally delta = *this;
    for (size_t i = 0; i < kIoRoleCount; ++i) {
      delta.pages_written[i] -= baseline.pages_written[i];
      delta.pages_read[i] -= baseline.pages_read[i];
    }
    delta.log_bytes_flushed -= baseline.log_bytes_flushed;
    return delta;
  }
};

}  // namespace sky::storage
