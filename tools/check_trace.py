#!/usr/bin/env python3
"""Schema check for mdbsim observability output (stdlib only).

Usage:
  tools/check_trace.py TRACE.json [METRICS.json]
  tools/check_trace.py METRICS.json

Validates the Chrome trace-event JSON written by --trace_out= (the subset
of the spec Perfetto/chrome://tracing require to load a file) and, when
given, the structured run report written by --metrics_out=. A run report
given alone (a run without --trace_out) gets every check that needs no
trace. The report reads no trace: its numbers come from stats counters and
the metrics engine, and the checks that need both files compare those
owners with the trace's own event counts. Also checks the
fault/retry sub-schema: crash "DOWN" spans must live on a site track (never
the GTM's), attempt numbers must be monotonically increasing per global
transaction, and net_fault/site_* instants must be well-formed. Exits
non-zero with a message on the first violation, so CI can gate on it.

The static-analysis/downgrade sub-schema (mdbsim --analyze
--auto_downgrade) is checked too: "downgrade" instants live on the GTM
track; downgrade events may only appear in a run whose report carries a
robust verdict with its certificate (and such a run must not emit a single
ser operation); a non-robust verdict must instead carry a witness cycle
and no downgrade events. The report counts downgrades in
gtm1.fast_path_attempts; when both files are given, the trace's downgrade
count must match it, and a certified run's trace must hold no ser_release
or ser_bef_seed instant.

The durability sub-schema (mdbsim --durable): "RECOVERY" spans live on
site tracks only and strictly inside that site's crash DOWN window (WAL
replay happens while the site is still down, and finishes before it comes
back up); recover instants carry non-negative replay counters. When both
files are given and the report has durable counters, the trace's RECOVERY
span count must equal site.recoveries and the summed replayed records of
its recover instants must equal site.wal_replay_records.

The GTM-recovery sub-schema (mdbsim --gtm_durable with a gtm_crash fault
plan): the GTM outage renders as a "GTM DOWN" span on the GTM track (never
a site's), opened by a gtm_crash instant and closed by the matching
gtm_recover instant; both instants live on the GTM track and carry
non-negative counters (gtm_recover's "a" is the number of WAL records
replayed). A trace may hold at most as many gtm_recover as gtm_crash
instants (a run can end mid-outage, never the reverse). When both files
are given, the instant counts must equal the report's gtm_wal.crashes and
gtm_wal.recoveries and the summed replay counters must equal
gtm_wal.replayed_records. Attempt-number monotonicity per global
transaction is enforced across GTM restarts by the same check as for
ordinary retries: recovery must resume the WAL's attempt counter, not
restart it.

The failover sub-schema (mdbsim --gtm_standby with a gtm_failover fault
plan): the takeover renders as a "FAILOVER" span on the GTM track only,
nested inside the "GTM DOWN" span the primary's crash opened (it must
close before the outage does). Its gtm_promote_begin instant carries the
new fencing epoch in "a" — strictly greater than any epoch seen before,
so a replayed or split-brain promotion is caught — and the durable tail
in "b"; the matching gtm_promote instant's "a" counts the tail records
applied, which join gtm_recover's replay counters in the
gtm_wal.replayed_records cross-check. When both files are given, the
trace's promotion count, final epoch and tail must equal the report's
gtm_standby.promotions, gtm_standby.fencing_epoch and
gtm_standby.lag_records, and a report can only claim promotions in a run
marked gtm_standby.

The GTM's two outbound channels must agree: when both files are given and
the report's trace section dropped nothing, the trace's count of each GTM1
lifecycle event (submit, attempt_start, attempt_abort, txn_commit,
txn_fail, txn_parked, txn_unparked) must equal the gtm1.* counter the GTM
keeps for the same transition (submitted, attempts, aborted_attempts,
committed, failed, parked, unparked).

The metrics-engine sub-schema (always-on unless --metrics=0): the report's
"metrics" section must carry zero balance violations, per-phase ticks that
sum EXACTLY to the total measured lifetime, the full nine-phase taxonomy,
a bottleneck that really is the argmax phase, and a timeline whose windows
increase strictly and whose per-window counters re-add to the run totals.
Each phase's distribution is its txn.phase.<phase> summary, with one
sample per finished transaction.
The "trace" section's dropped counter is reported loudly (a warning, not a
failure: dropping is legal, hiding it is not). Histogram bucket counts
must now sum to the summary's exact count — the engine keeps every sample
in log-linear buckets, there is no reservoir to cap at.
"""

import json
import re
import sys

VALID_PHASES = {"b", "e", "i", "C", "M"}

# GTM renders as tid 1; site k renders as tid k + 2 (trace_export.cc).
GTM_TID = 1
FIRST_SITE_TID = 2

NET_FAULT_DETAILS = {"req_lost", "resp_lost", "dup", "dup_suppressed",
                     "spike"}
SITE_HEALTH_EVENTS = {"site_suspect", "site_down", "site_up"}

ATTEMPT_NAME = re.compile(r"^G(\d+) attempt (\d+)$")


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)  # json.load itself rejects malformed JSON.
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: 'traceEvents' must be a non-empty array")

    open_async = {}  # (cat, id, pid) -> begin count
    thread_names = set()
    counts = {ph: 0 for ph in VALID_PHASES}
    last_attempt = {}  # global txn id -> last attempt number seen
    fault_counts = {"crash_spans": 0, "net_faults": 0, "resubmits": 0}
    downgrades = 0
    open_crash = {}  # tid -> open DOWN spans (for RECOVERY nesting)
    open_recovery = {}  # tid -> open RECOVERY spans
    recovery_spans = 0
    replayed_records = 0
    open_gtm_down = 0
    gtm_crashes = 0
    gtm_recovers = 0
    gtm_replayed = 0
    open_failover = 0
    promote_begins = 0
    promotes = 0
    promote_replayed = 0
    last_epoch = 0
    promote_tail = 0
    kinds = {}  # event kind -> count (instants by name, attempt spans)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: event {i} is not an object")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{path}: event {i} has unexpected ph={ph!r}")
        counts[ph] += 1
        if ph != "M":
            for key in ("ts", "pid", "tid"):
                if not isinstance(ev.get(key), (int, float)):
                    fail(f"{path}: event {i} ({ph}) lacks numeric '{key}'")
            if ev["ts"] < 0:
                fail(f"{path}: event {i} has negative timestamp")
        if "name" not in ev:
            fail(f"{path}: event {i} has no name")
        if ph in ("b", "e"):
            if "id" not in ev or "cat" not in ev:
                fail(f"{path}: async event {i} lacks id/cat")
            key = (ev["cat"], ev["id"], ev["pid"])
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
                if ev["cat"] == "crash":
                    # Outage windows belong to the crashed site's own track,
                    # never the GTM's.
                    if ev["tid"] < FIRST_SITE_TID:
                        fail(f"{path}: event {i} crash span on tid "
                             f"{ev['tid']} (not a site track)")
                    if ev["name"] != "DOWN":
                        fail(f"{path}: event {i} crash span named "
                             f"{ev['name']!r}, expected 'DOWN'")
                    fault_counts["crash_spans"] += 1
                    open_crash[ev["tid"]] = open_crash.get(ev["tid"], 0) + 1
                elif ev["cat"] == "recovery":
                    # WAL replay runs on the crashed site while it is still
                    # down: a RECOVERY span may only open on a site track
                    # inside that site's own DOWN window.
                    if ev["tid"] < FIRST_SITE_TID:
                        fail(f"{path}: event {i} RECOVERY span on tid "
                             f"{ev['tid']} (not a site track)")
                    if ev["name"] != "RECOVERY":
                        fail(f"{path}: event {i} recovery span named "
                             f"{ev['name']!r}, expected 'RECOVERY'")
                    if open_crash.get(ev["tid"], 0) <= 0:
                        fail(f"{path}: event {i} RECOVERY span on tid "
                             f"{ev['tid']} outside a DOWN window")
                    open_recovery[ev["tid"]] = \
                        open_recovery.get(ev["tid"], 0) + 1
                    recovery_spans += 1
                elif ev["cat"] == "gtm_crash":
                    # The GTM outage is a GTM-track span — a site track
                    # carrying it would misattribute the outage.
                    if ev["tid"] != GTM_TID:
                        fail(f"{path}: event {i} GTM DOWN span on tid "
                             f"{ev['tid']}, expected the GTM track")
                    if ev["name"] != "GTM DOWN":
                        fail(f"{path}: event {i} gtm_crash span named "
                             f"{ev['name']!r}, expected 'GTM DOWN'")
                    open_gtm_down += 1
                elif ev["cat"] == "gtm_failover":
                    # The takeover is GTM work nested inside the outage it
                    # repairs: a FAILOVER span on any other track, or
                    # outside a GTM DOWN window, misattributes it.
                    if ev["tid"] != GTM_TID:
                        fail(f"{path}: event {i} FAILOVER span on tid "
                             f"{ev['tid']}, expected the GTM track")
                    if ev["name"] != "FAILOVER":
                        fail(f"{path}: event {i} gtm_failover span named "
                             f"{ev['name']!r}, expected 'FAILOVER'")
                    if open_gtm_down <= 0:
                        fail(f"{path}: event {i} FAILOVER span outside a "
                             f"GTM DOWN window")
                    open_failover += 1
                elif ev["cat"] == "attempt":
                    kinds["attempt_start"] = kinds.get("attempt_start", 0) + 1
                    m = ATTEMPT_NAME.match(ev["name"])
                    if not m:
                        fail(f"{path}: event {i} attempt span named "
                             f"{ev['name']!r}, expected 'G<id> attempt <n>'")
                    if ev["tid"] != GTM_TID:
                        fail(f"{path}: event {i} attempt span on tid "
                             f"{ev['tid']}, expected the GTM track")
                    gid, attempt = int(m.group(1)), int(m.group(2))
                    if attempt <= last_attempt.get(gid, 0):
                        fail(f"{path}: event {i} G{gid} attempt {attempt} "
                             f"not after attempt {last_attempt[gid]}")
                    last_attempt[gid] = attempt
            else:
                if open_async.get(key, 0) <= 0:
                    fail(f"{path}: event {i} ends never-begun span {key}")
                open_async[key] -= 1
                if ev["cat"] == "recovery":
                    open_recovery[ev["tid"]] = \
                        open_recovery.get(ev["tid"], 0) - 1
                elif ev["cat"] == "crash":
                    # Replay finishes before the site comes back up: the
                    # RECOVERY span must close before its DOWN span does.
                    if open_recovery.get(ev["tid"], 0) > 0:
                        fail(f"{path}: event {i} DOWN span on tid "
                             f"{ev['tid']} closed with RECOVERY still open")
                    open_crash[ev["tid"]] = open_crash.get(ev["tid"], 0) - 1
                elif ev["cat"] == "gtm_crash":
                    # Promotion finishes before the outage ends: the
                    # FAILOVER span must close before its GTM DOWN does.
                    if open_failover > 0:
                        fail(f"{path}: event {i} GTM DOWN span closed with "
                             f"a FAILOVER span still open")
                    open_gtm_down -= 1
                elif ev["cat"] == "gtm_failover":
                    open_failover -= 1
        elif ph == "i":
            name, args = ev["name"], ev.get("args", {})
            kinds[name] = kinds.get(name, 0) + 1
            if name == "net_fault":
                if args.get("detail") not in NET_FAULT_DETAILS:
                    fail(f"{path}: event {i} net_fault with detail "
                         f"{args.get('detail')!r}")
                fault_counts["net_faults"] += 1
            elif name in SITE_HEALTH_EVENTS:
                site = args.get("site")
                if not isinstance(site, int) or site < 0:
                    fail(f"{path}: event {i} {name} without a site")
                if ev["tid"] != site + FIRST_SITE_TID:
                    fail(f"{path}: event {i} {name} for site {site} on tid "
                         f"{ev['tid']}, expected {site + FIRST_SITE_TID}")
            elif name in ("recover", "recovery_begin"):
                site = args.get("site")
                if not isinstance(site, int) or site < 0:
                    fail(f"{path}: event {i} {name} without a site")
                if ev["tid"] != site + FIRST_SITE_TID:
                    fail(f"{path}: event {i} {name} for site {site} on tid "
                         f"{ev['tid']}, expected {site + FIRST_SITE_TID}")
                if name == "recover":
                    for counter in ("a", "b"):
                        if not isinstance(args.get(counter), int) or \
                                args[counter] < 0:
                            fail(f"{path}: event {i} recover with bad "
                                 f"replay counter {counter}="
                                 f"{args.get(counter)!r}")
                    replayed_records += args["a"]
            elif name == "txn_resubmit":
                if not isinstance(args.get("a"), int) or args["a"] < 1:
                    fail(f"{path}: event {i} txn_resubmit with bad "
                         f"resubmission number {args.get('a')!r}")
                fault_counts["resubmits"] += 1
            elif name == "downgrade":
                # A fast-path attempt is a GTM decision; it renders on the
                # GTM track and names the job it belongs to.
                if ev["tid"] != GTM_TID:
                    fail(f"{path}: event {i} downgrade on tid {ev['tid']}, "
                         f"expected the GTM track")
                if not isinstance(args.get("a"), int) or args["a"] < 0:
                    fail(f"{path}: event {i} downgrade with bad job id "
                         f"{args.get('a')!r}")
                downgrades += 1
            elif name in ("gtm_crash", "gtm_recover"):
                if ev["tid"] != GTM_TID:
                    fail(f"{path}: event {i} {name} on tid {ev['tid']}, "
                         f"expected the GTM track")
                for counter in ("a", "b"):
                    if not isinstance(args.get(counter), int) or \
                            args[counter] < 0:
                        fail(f"{path}: event {i} {name} with bad counter "
                             f"{counter}={args.get(counter)!r}")
                if name == "gtm_crash":
                    # The crash instant opens the outage: its GTM DOWN span
                    # must already be in flight at this point in the stream.
                    if open_gtm_down <= 0:
                        fail(f"{path}: event {i} gtm_crash instant outside "
                             f"a GTM DOWN span")
                    gtm_crashes += 1
                else:
                    gtm_recovers += 1
                    gtm_replayed += args["a"]
                    if gtm_recovers > gtm_crashes:
                        fail(f"{path}: event {i} gtm_recover without a "
                             f"preceding gtm_crash")
            elif name in ("gtm_promote_begin", "gtm_promote"):
                if ev["tid"] != GTM_TID:
                    fail(f"{path}: event {i} {name} on tid {ev['tid']}, "
                         f"expected the GTM track")
                for counter in ("a", "b"):
                    if not isinstance(args.get(counter), int) or \
                            args[counter] < 0:
                        fail(f"{path}: event {i} {name} with bad counter "
                             f"{counter}={args.get(counter)!r}")
                if name == "gtm_promote_begin":
                    if open_failover <= 0:
                        fail(f"{path}: event {i} gtm_promote_begin outside "
                             f"a FAILOVER span")
                    # The fencing epoch only ever moves forward: a repeated
                    # or stale epoch here is split brain in the making.
                    if args["a"] <= last_epoch:
                        fail(f"{path}: event {i} gtm_promote_begin epoch "
                             f"{args['a']} not above previous epoch "
                             f"{last_epoch}")
                    last_epoch = args["a"]
                    promote_tail = args["b"]
                    promote_begins += 1
                else:
                    promotes += 1
                    promote_replayed += args["a"]
                    if promotes > promote_begins:
                        fail(f"{path}: event {i} gtm_promote without a "
                             f"preceding gtm_promote_begin")
        elif ph == "C":
            if not isinstance(ev.get("args"), dict) or not ev["args"]:
                fail(f"{path}: counter event {i} needs non-empty args")
        elif ph == "M":
            if ev.get("name") == "thread_name":
                thread_names.add((ev.get("pid"), ev.get("tid")))

    unclosed = {k: n for k, n in open_async.items() if n != 0}
    if unclosed:
        fail(f"{path}: {len(unclosed)} async spans never closed: "
             f"{list(unclosed)[:5]}")
    if not thread_names:
        fail(f"{path}: no thread_name metadata (tracks would be unlabeled)")
    print(f"check_trace: {path}: {len(events)} events OK "
          f"(spans={counts['b']}, instants={counts['i']}, "
          f"counters={counts['C']}, tracks={len(thread_names)}, "
          f"crashes={fault_counts['crash_spans']}, "
          f"net_faults={fault_counts['net_faults']}, "
          f"resubmits={fault_counts['resubmits']}, "
          f"downgrades={downgrades}, recoveries={recovery_spans}, "
          f"gtm_crashes={gtm_crashes}, promotions={promotes})")
    return {"kinds": kinds, "downgrades": downgrades,
            "recovery_spans": recovery_spans,
            "replayed_records": replayed_records,
            "gtm_crashes": gtm_crashes, "gtm_recovers": gtm_recovers,
            "gtm_replayed": gtm_replayed, "promotions": promotes,
            "promote_replayed": promote_replayed,
            "last_epoch": last_epoch, "promote_tail": promote_tail}


def check_analysis(path, doc, trace_stats):
    """The robustness-analyzer sub-schema over the run report."""
    info, counters = doc["info"], doc["counters"]
    downgrades = counters.get("gtm1.fast_path_attempts", 0)
    verdict = info.get("analysis.verdict")
    if trace_stats is not None and downgrades != trace_stats["downgrades"]:
        fail(f"{path}: gtm1.fast_path_attempts={downgrades} but the trace "
             f"has {trace_stats['downgrades']} downgrade instants")
    if downgrades > 0:
        # Fast-path attempts are only legal under a certified robust
        # verdict, and a certified run must never route a ser operation.
        if verdict != "robust":
            fail(f"{path}: {downgrades} downgrade events but "
                 f"analysis.verdict={verdict!r} (expected 'robust')")
        if not info.get("analysis.certificate"):
            fail(f"{path}: downgrade events without analysis.certificate")
        if info.get("analysis.downgraded") != "1":
            fail(f"{path}: downgrade events but analysis.downgraded="
                 f"{info.get('analysis.downgraded')!r}")
        for kind in ("ser_release", "ser_bef_seed"):
            if trace_stats is not None and trace_stats["kinds"].get(kind):
                fail(f"{path}: certified fast-path run emitted "
                     f"{trace_stats['kinds'][kind]} {kind} events")
        if counters.get("gtm2.ser_wait_additions", 0):
            fail(f"{path}: certified fast-path run delayed ser operations")
    if verdict == "not_robust":
        # Every non-robust verdict must be explainable, and must not have
        # triggered the fast path.
        if not info.get("analysis.witness"):
            fail(f"{path}: analysis.verdict=not_robust without a witness")
        if downgrades:
            fail(f"{path}: non-robust run has {downgrades} downgrade events")
        if info.get("analysis.downgraded") == "1":
            fail(f"{path}: non-robust run claims analysis.downgraded=1")
    if verdict is not None:
        print(f"check_trace: {path}: analysis verdict '{verdict}' "
              f"consistent (downgrades={downgrades})")


def check_recovery(path, doc, trace_stats):
    """The durability sub-schema over the run report."""
    info, counters = doc["info"], doc["counters"]
    recoveries = counters.get("site.recoveries", 0)
    replayed = counters.get("site.wal_replay_records", 0)
    if recoveries and not counters.get("site.wal_records", 0):
        fail(f"{path}: {recoveries} recoveries but no WAL records written")
    if trace_stats is not None:
        if trace_stats["recovery_spans"] != recoveries:
            fail(f"{path}: site.recoveries={recoveries} but the trace has "
                 f"{trace_stats['recovery_spans']} RECOVERY spans")
        if trace_stats["replayed_records"] != replayed:
            fail(f"{path}: site.wal_replay_records={replayed} but the "
                 f"trace's recover instants replayed "
                 f"{trace_stats['replayed_records']} records")
    if recoveries:
        summary = doc["summaries"].get("recovery.time")
        if not summary or summary["count"] != recoveries:
            fail(f"{path}: {recoveries} recoveries but recovery.time "
                 f"summary has count="
                 f"{summary['count'] if summary else 'missing'}")
    if info.get("durable") == "1" or recoveries:
        print(f"check_trace: {path}: durability counters consistent "
              f"(recoveries={recoveries}, replayed={replayed})")


def check_gtm_recovery(path, doc, trace_stats):
    """The GTM-durability sub-schema over the run report."""
    info, counters = doc["info"], doc["counters"]
    crashes = counters.get("gtm_wal.crashes", 0)
    recoveries = counters.get("gtm_wal.recoveries", 0)
    replayed = counters.get("gtm_wal.replayed_records", 0)
    if recoveries > crashes:
        fail(f"{path}: gtm_wal.recoveries={recoveries} exceeds "
             f"gtm_wal.crashes={crashes}")
    if recoveries and not counters.get("gtm_wal.records", 0):
        fail(f"{path}: {recoveries} GTM recoveries but no GTM WAL records "
             f"written")
    if crashes and not info.get("gtm_durable"):
        fail(f"{path}: {crashes} GTM crashes in a run not marked "
             f"gtm_durable (a non-durable GTM must reject gtm_crash plans)")
    if trace_stats is not None:
        if trace_stats["gtm_crashes"] != crashes:
            fail(f"{path}: gtm_wal.crashes={crashes} but the trace has "
                 f"{trace_stats['gtm_crashes']} gtm_crash instants")
        if trace_stats["gtm_recovers"] != recoveries:
            fail(f"{path}: gtm_wal.recoveries={recoveries} but the trace "
                 f"has {trace_stats['gtm_recovers']} gtm_recover instants")
        traced = trace_stats["gtm_replayed"] + trace_stats["promote_replayed"]
        if traced != replayed:
            fail(f"{path}: gtm_wal.replayed_records={replayed} but the "
                 f"trace's gtm_recover and gtm_promote instants replayed "
                 f"{traced} records")
    if info.get("gtm_durable") == "1" or crashes:
        print(f"check_trace: {path}: GTM durability counters consistent "
              f"(crashes={crashes}, recoveries={recoveries}, "
              f"replayed={replayed})")


def check_failover(path, doc, trace_stats):
    """The warm-standby failover sub-schema over the run report."""
    info, counters = doc["info"], doc["counters"]
    promotions = counters.get("gtm_standby.promotions", 0)
    epoch = counters.get("gtm_standby.fencing_epoch", 0)
    shipped = counters.get("gtm_standby.shipped_records", 0)
    applied = counters.get("gtm_standby.applied_records", 0)
    dropped = counters.get("gtm_standby.dropped_frames", 0)
    shipped_bytes = counters.get("gtm_standby.shipped_bytes", 0)
    applied_bytes = counters.get("gtm_standby.applied_bytes", 0)
    if promotions and info.get("gtm_standby") != "1":
        fail(f"{path}: {promotions} promotions in a run not marked "
             f"gtm_standby (only a warm standby can be promoted)")
    if epoch != promotions:
        # Each promotion bumps the fencing epoch exactly once; any other
        # relation means a promotion was replayed or an epoch skipped.
        fail(f"{path}: gtm_standby.fencing_epoch={epoch} != "
             f"gtm_standby.promotions={promotions}")
    # Both applied counters cover shipped frames only: each shipped frame
    # is applied before a promotion, dropped after it, or still in flight
    # when the run ends.
    if applied + dropped > shipped:
        fail(f"{path}: gtm_standby.applied_records={applied} + "
             f"dropped_frames={dropped} exceeds shipped_records={shipped}")
    if applied_bytes > shipped_bytes:
        fail(f"{path}: gtm_standby.applied_bytes={applied_bytes} exceeds "
             f"shipped_bytes={shipped_bytes}")
    if trace_stats is not None:
        if trace_stats["promotions"] != promotions:
            fail(f"{path}: gtm_standby.promotions={promotions} but the "
                 f"trace has {trace_stats['promotions']} gtm_promote "
                 f"instants")
        if promotions and trace_stats["last_epoch"] != epoch:
            fail(f"{path}: gtm_standby.fencing_epoch={epoch} but the "
                 f"trace's last promotion announced epoch "
                 f"{trace_stats['last_epoch']}")
        if promotions and trace_stats["promote_tail"] != \
                counters.get("gtm_standby.lag_records", 0):
            fail(f"{path}: gtm_standby.lag_records="
                 f"{counters.get('gtm_standby.lag_records', 0)} but the "
                 f"trace's promotion carried a tail of "
                 f"{trace_stats['promote_tail']} records")
    if info.get("gtm_standby") == "1" or promotions:
        print(f"check_trace: {path}: failover counters consistent "
              f"(promotions={promotions}, epoch={epoch}, "
              f"shipped={shipped}, applied={applied})")


TXN_PHASES = ("admission", "scheme", "ser_wait", "ticket", "network",
              "site_exec", "backoff", "parked", "recovery")

# Each GTM1 lifecycle event kind and the gtm1.* counter of the same
# transition.
GTM1_EVENT_COUNTERS = {
    "submit": "submitted",
    "attempt_start": "attempts",
    "attempt_abort": "aborted_attempts",
    "txn_commit": "committed",
    "txn_fail": "failed",
    "txn_parked": "parked",
    "txn_unparked": "unparked",
}


def check_gtm_channels(path, doc, trace_stats):
    """The event stream and the GTM's counters count each transition once."""
    counters = doc["counters"]
    if trace_stats is None or doc.get("trace", {}).get("dropped") != 0:
        return
    for kind, counter in GTM1_EVENT_COUNTERS.items():
        events = trace_stats["kinds"].get(kind, 0)
        gtm1 = counters.get(f"gtm1.{counter}", 0)
        if events != gtm1:
            fail(f"{path}: the trace has {events} {kind} events but "
                 f"gtm1.{counter}={gtm1}")
    print(f"check_trace: {path}: GTM1 events agree with gtm1.* counters")


TIMELINE_COUNTERS = ("submitted", "committed", "failed", "attempt_aborts",
                     "max_queue_depth", "max_wait_depth", "max_parked",
                     "site_down_events")


def check_metrics_engine(path, doc):
    """The always-on metrics-engine sub-schema over the run report."""
    if "trace" in doc:
        trace = doc["trace"]
        for key in ("recorded", "dropped"):
            if not isinstance(trace.get(key), int) or trace[key] < 0:
                fail(f"{path}: trace.{key} must be a non-negative integer")
        if trace["dropped"] > 0:
            # Dropping under a bounded buffer is legal; silence is not.
            print(f"check_trace: {path}: WARNING: trace sink dropped "
                  f"{trace['dropped']} events (recorded "
                  f"{trace['recorded']}) — raise --trace_buffer",
                  file=sys.stderr)
    if "metrics" not in doc:
        return
    m = doc["metrics"]
    repeated = [name for name in doc["counters"]
                if name.startswith("metrics.")]
    if repeated:
        fail(f"{path}: counters {repeated[:3]} repeat the metrics section")
    for key in ("window_size", "finished", "committed", "lifetime_ticks"):
        if not isinstance(m.get(key), int) or m[key] < 0:
            fail(f"{path}: metrics.{key} must be a non-negative integer")
    finished = m["finished"]
    if m["committed"] > finished:
        fail(f"{path}: metrics.committed={m['committed']} exceeds "
             f"finished={finished}")

    # The balance invariant is the engine's core guarantee: every finished
    # transaction's exclusive phases partition its lifetime exactly.
    balance = m.get("balance", {})
    if balance.get("violations") != 0 or balance.get("max_error") != 0:
        fail(f"{path}: phase balance violated: {balance!r}")
    if set(m.get("phases", {})) != set(TXN_PHASES):
        fail(f"{path}: metrics.phases keys {sorted(m.get('phases', {}))} "
             f"!= the phase taxonomy {sorted(TXN_PHASES)}")
    summaries = doc["summaries"]
    phase_ticks = {}
    for name in TXN_PHASES:
        phase = m["phases"][name]
        if set(phase) != {"ticks", "share"}:
            fail(f"{path}: phase {name} holds {sorted(phase)}, expected "
                 f"only ticks and share (txn.phase.{name} holds the rest)")
        if not isinstance(phase["ticks"], int) or phase["ticks"] < 0:
            fail(f"{path}: phase {name}.ticks must be a non-negative "
                 f"integer")
        if not 0.0 <= phase["share"] <= 1.0:
            fail(f"{path}: phase {name} share {phase['share']!r} "
                 f"outside [0,1]")
        summary = summaries.get(f"txn.phase.{name}")
        if summary is None:
            fail(f"{path}: summary txn.phase.{name} missing")
        if summary["count"] != finished:
            # Every phase summary gets one sample per finished transaction
            # (zero dwell records as zero), so the counts must all agree.
            fail(f"{path}: txn.phase.{name} count {summary['count']} != "
                 f"finished {finished}")
        phase_ticks[name] = phase["ticks"]
    if sum(phase_ticks.values()) != m["lifetime_ticks"]:
        fail(f"{path}: phase ticks sum {sum(phase_ticks.values())} != "
             f"lifetime_ticks {m['lifetime_ticks']}")

    bottleneck = m.get("bottleneck", {})
    if bottleneck.get("phase") not in TXN_PHASES:
        fail(f"{path}: bottleneck phase {bottleneck.get('phase')!r} not in "
             f"the taxonomy")
    if finished and phase_ticks[bottleneck["phase"]] != max(
            phase_ticks.values()):
        fail(f"{path}: bottleneck {bottleneck['phase']} is not the argmax "
             f"phase ({phase_ticks})")

    timeline = m.get("timeline")
    if not isinstance(timeline, list):
        fail(f"{path}: metrics.timeline is not an array")
    prev_window = None
    totals = {"submitted": 0, "committed": 0}
    for i, point in enumerate(timeline):
        for key in TIMELINE_COUNTERS:
            if not isinstance(point.get(key), int) or point[key] < 0:
                fail(f"{path}: timeline[{i}].{key} must be a non-negative "
                     f"integer")
        if prev_window is not None and point["window"] <= prev_window:
            fail(f"{path}: timeline windows not strictly increasing at "
                 f"[{i}]: {point['window']} after {prev_window}")
        prev_window = point["window"]
        if point.get("start") != point["window"] * m["window_size"]:
            fail(f"{path}: timeline[{i}] start {point.get('start')!r} != "
                 f"window*window_size")
        if not isinstance(point.get("p99_latency"), (int, float)) or \
                point["p99_latency"] < 0:
            fail(f"{path}: timeline[{i}] has bad p99_latency")
        totals["submitted"] += point["submitted"]
        totals["committed"] += point["committed"]
    # Windowed counts are a partition of the run: they re-add to the totals.
    if totals["submitted"] != finished:
        fail(f"{path}: timeline submitted sum {totals['submitted']} != "
             f"finished {finished}")
    if totals["committed"] != m["committed"]:
        fail(f"{path}: timeline committed sum {totals['committed']} != "
             f"committed {m['committed']}")

    lifetime = summaries.get("txn.lifetime")
    if lifetime is not None and lifetime["count"] != finished:
        fail(f"{path}: txn.lifetime summary count {lifetime['count']} != "
             f"metrics.finished {finished}")
    print(f"check_trace: {path}: metrics engine consistent "
          f"(finished={finished}, committed={m['committed']}, "
          f"bottleneck={bottleneck['phase']} "
          f"{bottleneck.get('share', 0.0):.0%}, "
          f"windows={len(timeline)})")


def check_metrics(path, trace_stats=None):
    with open(path) as f:
        doc = json.load(f)
    for key in ("info", "counters", "summaries"):
        if not isinstance(doc.get(key), dict):
            fail(f"{path}: missing object '{key}'")
    for name, value in doc["counters"].items():
        if not isinstance(value, int):
            fail(f"{path}: counter {name} is not an integer")
    for name, summary in doc["summaries"].items():
        for key in ("count", "mean", "min", "max", "quantiles", "histogram"):
            if key not in summary:
                fail(f"{path}: summary {name} lacks '{key}'")
        if summary["count"] < 0:
            fail(f"{path}: summary {name} has negative count")
        for q in ("p50", "p90", "p95", "p99", "p999"):
            if q not in summary["quantiles"]:
                fail(f"{path}: summary {name} lacks quantile {q}")
        histogram = summary["histogram"]
        if not isinstance(histogram, list):
            fail(f"{path}: summary {name} histogram is not an array")
        total = 0
        for bucket in histogram:
            if "le" not in bucket or "count" not in bucket:
                fail(f"{path}: summary {name} has a malformed bucket")
            total += bucket["count"]
        # Log-linear histograms count every sample — no reservoir cap.
        if histogram and total != summary["count"]:
            fail(f"{path}: summary {name} histogram counts {total} != "
                 f"count {summary['count']}")
    required = {"txn.lifetime"}
    missing = required - set(doc["summaries"])
    if missing:
        fail(f"{path}: expected summaries missing: {sorted(missing)}")
    check_analysis(path, doc, trace_stats)
    check_recovery(path, doc, trace_stats)
    check_gtm_recovery(path, doc, trace_stats)
    check_failover(path, doc, trace_stats)
    check_gtm_channels(path, doc, trace_stats)
    check_metrics_engine(path, doc)
    print(f"check_trace: {path}: {len(doc['counters'])} counters, "
          f"{len(doc['summaries'])} summaries OK")


def main():
    if len(sys.argv) < 2 or len(sys.argv) > 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if len(sys.argv) == 2:
        with open(sys.argv[1]) as f:
            if "traceEvents" not in json.load(f):
                check_metrics(sys.argv[1])
                return
    trace_stats = check_trace(sys.argv[1])
    if len(sys.argv) == 3:
        check_metrics(sys.argv[2], trace_stats=trace_stats)


if __name__ == "__main__":
    main()
