// QueryPolicy: the two-lane query scheduler's knobs, shared by the real
// engine path (db::QueryScheduler) and the sim server (client::SimServer's
// query-lane resources) — the same one-policy-two-backends pattern as
// core::ConcurrencyPolicy and core::CommitPolicy.
//
// The lanes reproduce the CasJobs shape ("Batch is back", MSR-TR-2005-19):
// short interactive lookups must stay fast while long batch scans run
// against the same hot, continuously loaded database. Interactive and batch
// admissions go through separate SlotGates so a batch backlog can never
// consume interactive slots, and — when batch_yields_to_interactive is on —
// a batch query defers admission entirely while any interactive query is
// admitted or in flight (strict priority at admission granularity; batch
// starvation under a saturated interactive lane is the accepted trade, as
// in CasJobs' queue weights).
//
// Header-only so db/ and client/ headers can embed it without a link
// dependency on the core library.
#pragma once

#include <cstdint>
#include <string>

namespace sky::core {

struct QueryPolicy {
  // Concurrent admissions per lane. Interactive is sized for short
  // point/range lookups; batch for long scans (kept small so scans cannot
  // monopolize CPU the loaders need).
  int64_t interactive_slots = 8;
  int64_t batch_slots = 2;
  // Batch admission waits until no interactive query is admitted or running
  // (strict priority; each deferral is counted as a batch "yield").
  bool batch_yields_to_interactive = true;

  // Clamp slot counts to at least one admission per lane (a zero-slot lane
  // would deadlock every admitter).
  QueryPolicy normalized() const {
    QueryPolicy p = *this;
    if (p.interactive_slots < 1) p.interactive_slots = 1;
    if (p.batch_slots < 1) p.batch_slots = 1;
    return p;
  }

  // e.g. "interactive=8, batch=2 (yields)".
  std::string describe() const {
    std::string out = "interactive=" + std::to_string(interactive_slots) +
                      ", batch=" + std::to_string(batch_slots);
    if (batch_yields_to_interactive) out += " (yields)";
    return out;
  }
};

}  // namespace sky::core
