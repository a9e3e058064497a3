// ST-TCP benchmark: runs one workload of the benchmark in this
// process and prints its metrics, the last stdout line being one JSON object
// (see stbench/WORKLOADS.md for the workloads and the metric map).
//
//   stbench --workload NAME --seed N --seconds S --mode plain|trace|host
//           [--audit-off-host-s X]
//
// A repetition runs the workload once per crash case (four crash phases for
// a crash workload, one simulation otherwise).
// plain: repeats the workload (same seed, same schedule) until S host
//   seconds have passed, at least twice, and prints the end-to-end metrics:
//   host-time figures are medians over the repetitions, virtual-time figures
//   must be identical in every repetition (as must the event order digests).
// trace: a warm-up and an untraced repetition as the base, the first case
//   stepped event by event with every connection, frame and control datagram
//   recorded, and one standard-TCP ablation (fault_tolerant=false); prints
//   the per-layer metrics. --audit-off-host-s is the measured-phase host time
//   of the same workload in a build with the auditors compiled out.
// host: the median measured-phase host time only (run.py runs it in the
//   auditors-OFF build to supply --audit-off-host-s).
//
// Everything is driven through the public API of harness, app and sttcp;
// nothing here reaches inside src/.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "app/client_driver.hpp"
#include "app/responder.hpp"
#include "check/audit.hpp"
#include "harness/testbed.hpp"
#include "ledger.hpp"
#include "net/ipv4.hpp"
#include "net/tcp_wire.hpp"
#include "net/udp.hpp"
#include "sttcp/control_messages.hpp"

using namespace sttcp;
using stbench::ClientRecord;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint16_t kServicePort = 8000;
constexpr std::size_t kMaxRecordedFrames = 20000;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------------

struct WorkloadSpec {
    const char* name;
    std::size_t clients;
    app::Workload workload;    // bulk sizes grow by a seed-drawn U(0, size_jitter) bytes
    std::uint32_t size_jitter;
    bool fast_lan;             // bench_scale's 1 Gbit / 50 us LAN, else paper links
    std::size_t tcp_buffer;    // 0: TcpConfig default
    sim::Duration start_slot;  // client i starts at i*slot + U(0, slot)
    sim::Duration deadline;    // virtual time budget from t = 0
    std::optional<sim::Duration> crash_at;  // plus a phase within one HB, per case
};

// A crash workload runs this many cases per repetition, their crash phases
// spread evenly over one heartbeat: failover time depends on where in the
// heartbeat the crash lands (Table 2), and a single phase per seed would
// make the failover figures jump from seed to seed.
constexpr std::uint64_t kCrashPhases = 4;

std::vector<WorkloadSpec> workload_table() {
    return {
        {"echo_fanin", 2000, {"echo_fanin", 40, 150, 0}, 0, true, 2048, sim::microseconds{10},
         sim::seconds{10}, std::nullopt},
        {"bulk_download", 1, app::Workload::bulk_mb(20), 64 * 1024, false, 0,
         sim::milliseconds{50}, sim::seconds{60}, std::nullopt},
        {"bulk_upload", 1, app::Workload::upload_kb(20 * 1024), 64 * 1024, false, 0,
         sim::milliseconds{50}, sim::seconds{60}, std::nullopt},
        {"failover_paper", 500, {"failover_paper", 40, 150, 0}, 0, false, 0,
         sim::milliseconds{2}, sim::seconds{30}, sim::seconds{2}},
    };
}

// The generated input: the seed shapes this and nothing else; the simulator
// itself always runs with the same testbed seed.
struct Schedule {
    app::Workload workload;
    std::vector<sim::Duration> client_start;
    std::vector<std::optional<sim::Duration>> crash_cases;  // one simulation each
};

Schedule make_schedule(const WorkloadSpec& spec, std::uint64_t seed) {
    sim::Random rng{seed};
    Schedule s;
    s.workload = spec.workload;
    if (spec.size_jitter) {
        const auto extra = static_cast<std::uint32_t>(rng.uniform(spec.size_jitter + 1ULL));
        (s.workload.upload_size ? s.workload.upload_size : s.workload.response_size) += extra;
    }
    const auto slot = static_cast<std::uint64_t>(spec.start_slot.count());
    for (std::size_t i = 0; i < spec.clients; ++i) {
        s.client_start.push_back(sim::Duration{static_cast<std::int64_t>(i * slot + rng.uniform(slot))});
    }
    if (!spec.crash_at) {
        s.crash_cases = {std::nullopt};
        return s;
    }
    const auto stratum = static_cast<std::uint64_t>(core::SttcpConfig{}.hb_interval.count()) /
                         kCrashPhases;
    const std::uint64_t phase = rng.uniform(stratum);
    for (std::uint64_t k = 0; k < kCrashPhases; ++k) {
        s.crash_cases.push_back(*spec.crash_at +
                                sim::Duration{static_cast<std::int64_t>(k * stratum + phase)});
    }
    return s;
}

harness::TestbedOptions testbed_options(const WorkloadSpec& spec, bool fault_tolerant) {
    harness::TestbedOptions o;
    o.fault_tolerant = fault_tolerant;
    if (spec.tcp_buffer) {
        o.tcp.send_buffer_size = spec.tcp_buffer;
        o.tcp.recv_buffer_size = spec.tcp_buffer;
    }
    if (spec.fast_lan) {
        o.client_bandwidth_bps = 1e9;
        o.server_bandwidth_bps = 1e9;
        o.propagation = sim::microseconds{50};
    }
    return o;
}

// ---- one repetition ------------------------------------------------------------

enum class TrialKind { kSetupOnly, kPlain, kTraced };

struct TcpTotals {
    std::uint64_t segments_sent = 0, retransmits = 0, timeouts = 0, dup_acks_in = 0,
                  pure_acks_out = 0, connections = 0;
    void add(const tcp::TcpConnection::Stats& s) {
        segments_sent += s.segments_sent;
        retransmits += s.retransmits;
        timeouts += s.timeouts;
        dup_acks_in += s.dup_acks_in;
        pure_acks_out += s.pure_acks_out;
        ++connections;
    }
};

struct Trial {
    double setup_host_s = 0;
    double measured_host_s = 0;
    double deadline_s = 0;
    std::vector<ClientRecord> clients;
    std::uint64_t verify_errors = 0;
    std::uint64_t client_failures = 0;
    std::uint64_t violations = 0;

    std::uint64_t digest = 0, events = 0, scheduled = 0, rearmed = 0, peak_pending = 0;
    std::uint64_t hub_frames = 0, client_link_bytes = 0;
    net::Link::Stats backup_link;
    net::Nic::Stats backup_nic;
    std::uint64_t segments_suppressed = 0;
    app::ResponderApp::Stats primary_app, backup_app;
    core::SttcpPrimary::Stats st_primary;
    core::SttcpBackup::Stats st_backup;
    std::uint64_t control_bytes = 0, control_datagrams = 0;

    std::optional<double> crash_s, suspected_s, takeover_s;

    // Traced simulations only.
    std::vector<std::uint32_t> event_ns;
    std::vector<util::Bytes> frames;  // serialized, as seen on the backup's hub link
    TcpTotals tcp;
};

Trial run_trial(const WorkloadSpec& spec, const Schedule& schedule,
                std::optional<sim::Duration> crash, TrialKind kind, bool fault_tolerant) {
    Trial t;
    t.deadline_s = sim::to_seconds(spec.deadline);
    const bool traced = kind == TrialKind::kTraced;
    const std::uint64_t violations0 = check::Audit::violation_count();
    std::vector<net::EthernetFrame> frames;
    std::vector<std::shared_ptr<tcp::TcpConnection>> conns;
    std::unordered_set<const tcp::TcpConnection*> seen;
    auto track = [&](const std::shared_ptr<tcp::TcpConnection>& c) {
        if (seen.insert(c.get()).second) conns.push_back(c);
    };

    const auto t0 = Clock::now();
    auto bed = std::make_unique<harness::HubTestbed>(testbed_options(spec, fault_tolerant));
    sim::EventQueue& q = bed->sim.queue();
    // Relays let the traced run see every accepted connection (shadows
    // included) before the application does.
    tcp::TcpListener primary_relay{*bed->primary, kServicePort};
    tcp::TcpListener backup_relay{*bed->backup, kServicePort};
    app::ResponderApp primary_app, backup_app;
    std::shared_ptr<tcp::TcpListener> pl, bl;
    if (fault_tolerant) {
        pl = bed->st_primary->listen(kServicePort);
        bl = bed->st_backup->listen(kServicePort);
    } else {
        pl = bed->primary->tcp_listen(kServicePort);
    }
    if (traced) {
        primary_app.attach(primary_relay);
        pl->set_accept_handler([&](std::shared_ptr<tcp::TcpConnection> c) {
            track(c);
            primary_relay.dispatch_accept(std::move(c));
        });
        if (bl) {
            backup_app.attach(backup_relay);
            bl->set_accept_handler([&](std::shared_ptr<tcp::TcpConnection> c) {
                track(c);
                backup_relay.dispatch_accept(std::move(c));
            });
        }
        bed->backup_link->set_observer([&](const net::EthernetFrame& f, const net::FrameEndpoint&) {
            if (frames.size() < kMaxRecordedFrames) frames.push_back(f);
        });
    } else {
        primary_app.attach(*pl);
        if (bl) backup_app.attach(*bl);
    }
    if (fault_tolerant) {
        bed->st_primary->start();
        bed->st_backup->start();
        bed->st_backup->set_on_failover([&](sim::TimePoint suspected, sim::TimePoint done) {
            t.suspected_s = sim::to_seconds(suspected);
            t.takeover_s = sim::to_seconds(done);
        });
    }

    std::deque<app::ClientDriver> drivers;
    std::vector<char> started(spec.clients, 0);
    std::size_t done = 0;
    for (std::size_t i = 0; i < spec.clients; ++i) {
        drivers.emplace_back(*bed->client, bed->service_ip(), kServicePort, schedule.workload);
        bed->sim.schedule_at(sim::TimePoint{schedule.client_start[i]}, [&, i] {
            started[i] = 1;
            drivers[i].start([&done] { ++done; });
            if (traced) {
                for (const auto& c : bed->client->connections()) track(c);
            }
        });
    }
    if (crash && fault_tolerant) {
        bed->sim.schedule_at(sim::TimePoint{*crash}, [&] {
            t.crash_s = sim::to_seconds(bed->sim.now());
            bed->crash_primary();
        });
    }
    const auto t1 = Clock::now();
    t.setup_host_s = std::chrono::duration<double>(t1 - t0).count();
    if (kind == TrialKind::kSetupOnly) return t;

    const sim::TimePoint deadline{spec.deadline};
    if (traced) {
        t.event_ns.reserve(1 << 20);
        while (done < spec.clients && q.now() < deadline) {
            const auto a = Clock::now();
            const std::size_t ran = q.run(1);
            const auto b = Clock::now();
            if (ran == 0) break;
            t.event_ns.push_back(static_cast<std::uint32_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count()));
        }
    } else {
        while (done < spec.clients && q.now() < deadline) {
            bed->sim.run_until(std::min(deadline, q.now() + sim::milliseconds{10}));
        }
    }
    t.measured_host_s = seconds_since(t1);

    for (std::size_t i = 0; i < drivers.size(); ++i) {
        const auto& r = drivers[i].result();
        ClientRecord c;
        c.started = started[i] != 0;
        c.connect_s = sim::to_seconds(r.started_at);
        c.finished = r.completed;
        c.finished_s = sim::to_seconds(r.finished_at);
        c.round_s = r.round_seconds;
        t.verify_errors += r.verify_errors;
        t.client_failures += r.failed ? 1 : 0;
        t.clients.push_back(std::move(c));
    }
    t.violations = check::Audit::violation_count() - violations0;
    t.digest = q.order_digest();
    t.events = q.executed();
    t.scheduled = q.scheduled();
    t.rearmed = q.rearmed();
    t.peak_pending = q.peak_pending();
    t.hub_frames = bed->hub.stats().frames_repeated;
    t.client_link_bytes = bed->client_link->stats().bytes_delivered;
    t.backup_link = bed->backup_link->stats();
    t.backup_nic = bed->backup_nic->stats();
    t.segments_suppressed = bed->backup->stats().tcp_segments_suppressed;
    t.primary_app = primary_app.stats();
    t.backup_app = backup_app.stats();
    if (fault_tolerant) {
        t.st_primary = bed->st_primary->stats();
        t.st_backup = bed->st_backup->stats();
        const auto& p = bed->st_primary->control_channel_stats();
        const auto& b = bed->st_backup->control_channel_stats();
        t.control_bytes = p.bytes_sent + b.bytes_sent;
        t.control_datagrams = p.datagrams_sent + b.datagrams_sent;
    }
    if (traced) {
        for (const auto& c : conns) t.tcp.add(c->stats());
        t.frames.reserve(frames.size());
        for (const auto& f : frames) t.frames.push_back(f.serialize());
    }
    // Recorded connections and frames must not outlive the testbed's stacks.
    conns.clear();
    frames.clear();
    return t;
}

// ---- derived figures ---------------------------------------------------------------

// One simulation per crash case; the figures below pool them.
using Repetition = std::vector<Trial>;

template <typename F>
double sum_over(const Repetition& rep, F field) {
    double sum = 0;
    for (const Trial& t : rep) sum += static_cast<double>(field(t));
    return sum;
}

struct Outcome {
    stbench::RoundLedger rounds;     // every case's clients pooled
    double app_bytes = 0;            // request + upload + response bytes of completed rounds
    double completion_virt_s = 0;    // median over the cases
    std::vector<double> stalls_s;    // every case's crash stalls pooled
    std::vector<double> detect_s, takeover_s, failover_s;  // per case that crashed
};

Outcome outcome_of(const app::Workload& w, const Repetition& rep) {
    Outcome o;
    std::vector<ClientRecord> clients;
    std::vector<double> completion;
    for (const Trial& t : rep) {
        clients.insert(clients.end(), t.clients.begin(), t.clients.end());
        completion.push_back(stbench::completion_span(t.clients));
        if (!t.crash_s) continue;
        auto stalls = stbench::crash_stalls(t.clients, *t.crash_s, t.deadline_s);
        o.stalls_s.insert(o.stalls_s.end(), stalls.begin(), stalls.end());
        if (t.suspected_s && t.takeover_s) {
            o.detect_s.push_back(*t.suspected_s - *t.crash_s);
            o.takeover_s.push_back(*t.takeover_s - *t.suspected_s);
            o.failover_s.push_back(*t.takeover_s - *t.crash_s);
        }
    }
    o.rounds = stbench::round_ledger(clients, w.rounds, rep.front().deadline_s);
    o.app_bytes = static_cast<double>(o.rounds.completed) *
                  static_cast<double>(app::kRequestSize + w.upload_size + w.response_size);
    o.completion_virt_s = stbench::median(completion);
    return o;
}

// The virtual-time outcome a repetition must reproduce exactly.
struct VirtualSignature {
    std::vector<std::uint64_t> digests;
    std::uint64_t completed;
    double control_bytes, tail_level, p50_s, tail_s, completion_s;
    bool operator==(const VirtualSignature&) const = default;
};

VirtualSignature signature_of(const Repetition& rep, const Outcome& o) {
    const auto& lat = o.rounds.latency_s;
    const double level = stbench::tail_level(lat.size(), 99.0);
    VirtualSignature v{{}, o.rounds.completed,
                       sum_over(rep, [](const Trial& t) { return t.control_bytes; }),
                       level, stbench::percentile(lat, 50), stbench::percentile(lat, level),
                       o.completion_virt_s};
    for (const Trial& t : rep) v.digests.push_back(t.digest);
    return v;
}

Repetition run_repetition(const WorkloadSpec& spec, const Schedule& schedule) {
    Repetition rep;
    for (const auto& crash : schedule.crash_cases) {
        rep.push_back(run_trial(spec, schedule, crash, TrialKind::kPlain, true));
    }
    return rep;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

class Report {
public:
    void add(std::string name, double value, std::string unit, std::string note = {}) {
        metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
    }
    void fail(const std::string& why) {
        std::printf("CHECK FAILED: %s\n", why.c_str());
        correct_ = false;
    }
    [[nodiscard]] bool correct() const { return correct_; }

    void print(std::uint64_t attempted, std::uint64_t failed) const {
        for (const auto& m : metrics_) {
            std::printf("  %-34s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                        m.note.empty() ? "" : "  # ", m.note.c_str());
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                    ", \"metrics\": {",
                    correct_ ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                        metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
        }
        std::printf("}}\n");
    }

private:
    std::vector<Metric> metrics_;
    bool correct_ = true;
};

std::string sample_note(double level, std::size_t n) {
    if (n == 0) return "no samples";
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%g of %zu samples", level, n);
    return buf;
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void check_trial(Report& report, const Trial& t, const char* what) {
    std::string w = what;
    if (t.verify_errors) report.fail(w + ": response bytes failed verification");
    if (t.client_failures) report.fail(w + ": a client connection failed");
    if (t.violations) report.fail(w + ": runtime auditor reported violations");
    if (t.crash_s && !t.takeover_s) report.fail(w + ": the primary crashed but nobody took over");
}

void check_repetition(Report& report, const Repetition& rep, const char* what) {
    for (const Trial& t : rep) check_trial(report, t, what);
}

// ---- plain mode: end-to-end metrics -------------------------------------------------

// Set-up is short next to a repetition, so it is sampled this many extra
// times before every repetition: the median then spans the whole run, as the
// host-time figures do.
constexpr int kSetupSamplesPerRepetition = 10;

int run_plain(const WorkloadSpec& spec, const Schedule& schedule, double budget_s) {
    Report report;
    const auto start = Clock::now();
    std::vector<double> setup_s, measured_s;
    std::optional<VirtualSignature> first_sig;
    Repetition rep;
    while (measured_s.size() < 2 || seconds_since(start) < budget_s) {
        for (int i = 0; i < kSetupSamplesPerRepetition; ++i) {
            setup_s.push_back(run_trial(spec, schedule, schedule.crash_cases.front(),
                                        TrialKind::kSetupOnly, true)
                                  .setup_host_s);
        }
        rep = run_repetition(spec, schedule);
        check_repetition(report, rep, "repetition");
        for (const Trial& t : rep) setup_s.push_back(t.setup_host_s);
        measured_s.push_back(sum_over(rep, [](const Trial& t) { return t.measured_host_s; }));
        const VirtualSignature sig = signature_of(rep, outcome_of(schedule.workload, rep));
        if (!first_sig) {
            first_sig = sig;
        } else if (!(sig == *first_sig)) {
            report.fail("virtual-time outcome or event order differs between repetitions");
        }
        if (!report.correct()) break;
    }

    const Outcome o = outcome_of(schedule.workload, rep);
    const VirtualSignature& v = *first_sig;
    const double host = stbench::median(measured_s);
    const double frames = sum_over(rep, [](const Trial& t) { return t.hub_frames; });
    std::printf("workload %s: %zu repetitions of %zu case(s), %zu clients x %u rounds, "
                "deadline %.0f s virtual\n",
                spec.name, measured_s.size(), rep.size(), spec.clients, spec.workload.rounds,
                rep.front().deadline_s);
    report.add("setup_s", stbench::median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups");
    report.add("rounds_per_host_s", stbench::ratio(static_cast<double>(o.rounds.completed), host),
               "rounds/s");
    report.add("goodput_mb_per_host_s", stbench::ratio(o.app_bytes / 1e6, host), "MB/s");
    report.add("host_ns_per_frame", stbench::ratio(host * 1e9, frames), "ns",
               std::to_string(static_cast<std::uint64_t>(frames)) + " frames repeated by the hub");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("rounds_completed_share", o.rounds.completed_share(), "ratio",
               std::to_string(o.rounds.completed) + " of " + std::to_string(o.rounds.attempted));
    report.add("round_p50_virt_ms", v.p50_s * 1e3, "ms", sample_note(50, o.rounds.latency_s.size()));
    report.add("round_p99_virt_ms", v.tail_s * 1e3, "ms",
               sample_note(v.tail_level, o.rounds.latency_s.size()));
    report.add("completion_virt_s", v.completion_s, "s",
               rep.size() > 1 ? "median over the crash cases" : "");
    report.add("control_bytes_per_kb", stbench::ratio(v.control_bytes, o.app_bytes / 1024.0),
               "B/KB", std::to_string(static_cast<std::uint64_t>(v.control_bytes)) +
                           " control bytes");

    std::vector<double> stuck_on;
    for (const Trial& t : rep) {
        for (const auto& c : t.clients) {
            if (!c.finished) stuck_on.push_back(static_cast<double>(c.round_s.size()));
        }
    }
    std::printf("  (info) rounds_failed_share %.6g (%" PRIu64 " of %" PRIu64 " rounds); "
                "the client link carried %.1f MB\n",
                o.rounds.failed_share(), o.rounds.failed(), o.rounds.attempted,
                sum_over(rep, [](const Trial& t) { return t.client_link_bytes; }) / 1e6);
    if (!stuck_on.empty()) {
        std::printf("  (info) %zu clients unfinished at the deadline, stuck on rounds %g..%g "
                    "(median %g)\n",
                    stuck_on.size(), stbench::percentile(stuck_on, 0),
                    stbench::percentile(stuck_on, 100), stbench::median(stuck_on));
    }
    if (!o.failover_s.empty()) {
        std::printf("  (info) failover %.1f ms (median of %zu crash phases), crash stall "
                    "p50 %.1f ms over %zu connections\n",
                    stbench::median(o.failover_s) * 1e3, o.failover_s.size(),
                    stbench::percentile(o.stalls_s, 50) * 1e3, o.stalls_s.size());
    }
    std::printf("  (info) measured host s per repetition (median %.4f):", host);
    for (double m : measured_s) std::printf(" %.4f", m);
    std::printf("\n");
    report.print(o.rounds.attempted, o.rounds.failed());
    return report.correct() ? 0 : 1;
}

// ---- trace mode: per-layer metrics --------------------------------------------------

struct Replay {
    double parse_ns_per_frame = 0;
    double control_decode_ns = 0;
    std::uint64_t parse_errors = 0;
    std::size_t control_datagrams = 0;
};

// Replays recorded frames through the wire parsers (checksums included) and
// the recorded control datagrams through the control-channel decoder.
Replay replay(const std::vector<util::Bytes>& frames, std::uint16_t control_port) {
    Replay r;
    std::vector<util::Bytes> control;
    std::uint64_t sink = 0;
    auto parse_one = [&](const util::Bytes& raw, bool collect) {
        try {
            net::EthernetFrame f = net::EthernetFrame::parse(raw);
            if (f.type != net::EtherType::kIpv4) return;
            net::Ipv4Packet ip = net::Ipv4Packet::parse(f.payload.view());
            if (ip.proto == net::IpProto::kTcp) {
                sink += net::TcpSegment::parse(ip.payload, ip.src, ip.dst).seq.raw();
            } else if (ip.proto == net::IpProto::kUdp) {
                net::UdpDatagram d = net::UdpDatagram::parse(ip.payload, ip.src, ip.dst);
                if (collect && (d.dst_port == control_port || d.src_port == control_port)) {
                    control.push_back(std::move(d.payload));
                }
                sink += d.payload.size();
            }
        } catch (const util::WireError&) {
            if (collect) ++r.parse_errors;
        }
    };
    for (const auto& raw : frames) parse_one(raw, true);
    constexpr double kMinTimed = 0.2;
    if (!frames.empty()) {
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        do {
            for (const auto& raw : frames) parse_one(raw, false);
            n += frames.size();
        } while (seconds_since(t0) < kMinTimed);
        r.parse_ns_per_frame = seconds_since(t0) * 1e9 / static_cast<double>(n);
    }
    r.control_datagrams = control.size();
    if (!control.empty()) {
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        do {
            for (const auto& raw : control) {
                if (auto m = core::ControlMessage::parse(raw)) sink += m->seq.raw();
            }
            n += control.size();
        } while (seconds_since(t0) < kMinTimed);
        r.control_decode_ns = seconds_since(t0) * 1e9 / static_cast<double>(n);
    }
    if (sink == 42) std::printf("\n");  // keeps the parses observable
    return r;
}

int run_trace(const WorkloadSpec& spec, const Schedule& schedule,
              std::optional<double> audit_off_host_s) {
    Report report;
    // A warm-up repetition, then every crash case untraced (the virtual-time
    // figures pool them), the first case traced, and standard TCP without a
    // crash. The warm-up keeps the heap's first growth out of the host shares.
    run_repetition(spec, schedule);
    const Repetition base = run_repetition(spec, schedule);
    const auto first_case = schedule.crash_cases.front();
    const Trial t = run_trial(spec, schedule, first_case, TrialKind::kTraced, true);
    const Trial std_tcp = run_trial(spec, schedule, std::nullopt, TrialKind::kPlain, false);
    check_repetition(report, base, "untraced repetition");
    check_trial(report, t, "traced repetition");
    check_trial(report, std_tcp, "standard-TCP ablation");

    const Outcome o = outcome_of(schedule.workload, {t});
    const Outcome o_base = outcome_of(schedule.workload, base);
    const Outcome o_std = outcome_of(schedule.workload, {std_tcp});
    const Replay rp = replay(t.frames, core::SttcpConfig{}.control_port);
    if (rp.parse_errors) report.fail("recorded frames failed to parse");

    const double rounds = static_cast<double>(o.rounds.completed);
    const double mb = o.app_bytes / 1e6;
    const double frames = static_cast<double>(t.hub_frames);
    std::vector<double> event_ns(t.event_ns.begin(), t.event_ns.end());
    std::printf("workload %s (traced): %" PRIu64 " events, %zu frames and %zu control datagrams "
                "replayed, %" PRIu64 " TCP connections; standard TCP completed %" PRIu64
                " of %" PRIu64 " rounds\n",
                spec.name, t.events, t.frames.size(), rp.control_datagrams, t.tcp.connections,
                o_std.rounds.completed, o_std.rounds.attempted);

    const double event_level = stbench::tail_level(event_ns.size(), 99.0);
    report.add("sim.events_per_round", stbench::ratio(static_cast<double>(t.events), rounds),
               "events/round");
    report.add("sim.events_per_mb", stbench::ratio(static_cast<double>(t.events), mb), "events/MB");
    report.add("sim.peak_pending", static_cast<double>(t.peak_pending), "count");
    report.add("sim.rearm_share",
               stbench::ratio(static_cast<double>(t.rearmed), static_cast<double>(t.scheduled)),
               "ratio");
    report.add("sim.event_ns_p50", stbench::percentile(event_ns, 50), "ns",
               sample_note(50, event_ns.size()));
    report.add("sim.event_ns_p99", stbench::percentile(event_ns, event_level), "ns",
               sample_note(event_level, event_ns.size()));

    report.add("net.frames_per_round", stbench::ratio(frames, rounds), "frames/round");
    report.add("net.frames_per_mb", stbench::ratio(frames, mb), "frames/MB");
    report.add("net.tap_drop_share",
               stbench::ratio(static_cast<double>(t.backup_link.frames_dropped_queue),
                              static_cast<double>(t.backup_link.frames_sent)),
               "ratio", std::to_string(t.backup_link.frames_dropped_queue) + " of " +
                            std::to_string(t.backup_link.frames_sent) + " frames");
    report.add("net.parse_ns_per_frame", rp.parse_ns_per_frame, "ns",
               std::to_string(t.frames.size()) + " recorded frames");
    report.add("net.nic_filtered_share",
               stbench::ratio(static_cast<double>(t.backup_nic.rx_filtered),
                              static_cast<double>(t.backup_nic.rx_frames)),
               "ratio", "base " + std::to_string(t.backup_nic.rx_frames) + " frames");

    const double data_segments = static_cast<double>(t.tcp.segments_sent - t.tcp.pure_acks_out);
    report.add("tcp.retransmits_per_round",
               stbench::ratio(static_cast<double>(t.tcp.retransmits), rounds), "count/round");
    report.add("tcp.timeouts", static_cast<double>(t.tcp.timeouts), "count");
    report.add("tcp.dup_acks_in", static_cast<double>(t.tcp.dup_acks_in), "count");
    report.add("tcp.pure_acks_per_data_segment",
               stbench::ratio(static_cast<double>(t.tcp.pure_acks_out), data_segments), "ratio");
    report.add("tcp.segments_suppressed", static_cast<double>(t.segments_suppressed), "count");

    const double requested = static_cast<double>(t.st_backup.missing_bytes_requested);
    const double recovered = static_cast<double>(t.st_backup.missing_bytes_recovered);
    report.add("sttcp.backup_acks_per_round",
               stbench::ratio(static_cast<double>(t.st_backup.acks_sent), rounds), "acks/round");
    report.add("sttcp.control_datagrams_per_mb",
               stbench::ratio(static_cast<double>(t.control_datagrams), mb), "datagrams/MB");
    report.add("sttcp.bytes_released", static_cast<double>(t.st_primary.bytes_released), "B");
    report.add("sttcp.tap_gaps", static_cast<double>(t.st_backup.gaps_detected), "count");
    report.add("sttcp.missing_bytes_requested", requested, "B");
    report.add("sttcp.missing_bytes_recovered", recovered, "B");
    report.add("sttcp.recovery_yield", stbench::ratio(recovered, requested), "ratio");
    const std::string phases = o_base.failover_s.empty()
                                   ? "no crash"
                                   : "median of " + std::to_string(o_base.failover_s.size()) +
                                         " crash phases";
    report.add("sttcp.detect_virt_ms", stbench::median(o_base.detect_s) * 1e3, "ms", phases);
    report.add("sttcp.takeover_virt_ms", stbench::median(o_base.takeover_s) * 1e3, "ms", phases);
    report.add("sttcp.failover_virt_ms", stbench::median(o_base.failover_s) * 1e3, "ms", phases);
    const auto& stalls = o_base.stalls_s;
    const double stall_level = stbench::tail_level(stalls.size(), 99.0);
    report.add("sttcp.stall_p50_virt_ms", stbench::percentile(stalls, 50) * 1e3, "ms",
               sample_note(50, stalls.size()));
    report.add("sttcp.stall_p99_virt_ms", stbench::percentile(stalls, stall_level) * 1e3, "ms",
               sample_note(stall_level, stalls.size()));
    report.add("sttcp.overhead_virt_ratio",
               stbench::ratio(o_base.completion_virt_s, o_std.completion_virt_s), "ratio",
               "completion over that of failure-free standard TCP");
    report.add("sttcp.host_share",
               stbench::share_saved(std_tcp.measured_host_s, base.front().measured_host_s),
               "ratio");
    report.add("sttcp.control_decode_ns", rp.control_decode_ns, "ns",
               std::to_string(rp.control_datagrams) + " recorded datagrams");

    const double base_host_s = sum_over(base, [](const Trial& b) { return b.measured_host_s; });
    report.add("check.violations",
               sum_over(base, [](const Trial& b) { return b.violations; }) +
                   static_cast<double>(t.violations + std_tcp.violations),
               "count");
    report.add("check.host_share",
               audit_off_host_s ? stbench::share_saved(*audit_off_host_s, base_host_s) : 0,
               "ratio");

    report.add("app.bytes_verified", o.app_bytes, "B");
    report.add("app.responder_requests",
               static_cast<double>(t.primary_app.requests_served + t.backup_app.requests_served),
               "count", "primary and backup replicas");
    report.add("app.rounds_failed_share", o_base.rounds.failed_share(), "ratio",
               std::to_string(o_base.rounds.failed()) + " of " +
                   std::to_string(o_base.rounds.attempted));

    report.add("harness.trace_overhead_share",
               stbench::ratio(t.measured_host_s, base.front().measured_host_s) - 1.0, "ratio");
    report.print(o_base.rounds.attempted, o_base.rounds.failed());
    return report.correct() ? 0 : 1;
}

// host: after a warm-up repetition, the median measured-phase host time over
// the repetitions that fit in the budget (at least one), for builds compared
// against this one.
int run_host(const WorkloadSpec& spec, const Schedule& schedule, double budget_s) {
    Report report;
    const auto start = Clock::now();
    std::vector<double> measured_s;
    run_repetition(spec, schedule);  // warm-up, as in run_trace
    while (measured_s.empty() || seconds_since(start) < budget_s) {
        const Repetition rep = run_repetition(spec, schedule);
        check_repetition(report, rep, "repetition");
        measured_s.push_back(sum_over(rep, [](const Trial& t) { return t.measured_host_s; }));
    }
    std::printf("{\"correct\": %s, \"measured_host_s\": %.17g}\n", report.correct() ? "true" : "false",
                stbench::median(measured_s));
    return report.correct() ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "stbench: %s\nusage: stbench --workload NAME --seed N "
                 "--seconds S --mode plain|trace|host [--audit-off-host-s X]\n",
                 why);
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) usage("malformed arguments");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0) usage("malformed arguments");
    for (const char* key : {"workload", "seed", "seconds", "mode"}) {
        if (!args.count(key)) usage("missing argument");
    }
    const auto table = workload_table();
    const WorkloadSpec* spec = nullptr;
    for (const auto& w : table) {
        if (args["workload"] == w.name) spec = &w;
    }
    if (!spec) usage("unknown workload");
    const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
    const Schedule schedule = make_schedule(*spec, seed);

    if (args["mode"] == "plain") return run_plain(*spec, schedule, seconds);
    if (args["mode"] == "host") return run_host(*spec, schedule, seconds);
    if (args["mode"] == "trace") {
        std::optional<double> off;
        if (args.count("audit-off-host-s")) off = std::strtod(args["audit-off-host-s"].c_str(), nullptr);
        return run_trace(*spec, schedule, off);
    }
    usage("unknown mode");
}
