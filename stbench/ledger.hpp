// Arithmetic of the ST-TCP benchmark, kept apart from the simulator so it
// can be unit-tested on hand-made samples (ledger_test.cpp).
//
// Conventions:
//   * Percentiles are nearest-rank: the p-th percentile of n samples is the
//     ceil(p*n/100)-th smallest.
//   * A tail is reported at the highest level of kTailLadder, no higher than
//     asked, that leaves at least kTailMinBeyond samples above it; when no
//     level does, the median stands in for the tail.
//   * A closed-loop client's round that has not completed by the deadline is
//     censored: it counts as failed and as lasting from when the client
//     began waiting for it until the deadline. Rounds queued behind a stuck
//     round were waited for since the same instant.
//   * A ratio with a zero base reads 0; callers print the base beside it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stbench {

inline constexpr std::size_t kTailMinBeyond = 10;
inline constexpr std::array<double, 5> kTailLadder = {99.0, 98.0, 95.0, 90.0, 75.0};

[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double level) {
    auto rank = static_cast<std::size_t>(std::ceil(level / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

// The level to report as the tail of n samples when `wanted` is asked for.
[[nodiscard]] inline double tail_level(std::size_t n, double wanted) {
    for (double level : kTailLadder) {
        if (level > wanted) continue;
        if (n >= kTailMinBeyond && n - nearest_rank(n, level) >= kTailMinBeyond) return level;
    }
    return 50.0;
}

// Nearest-rank percentile; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double level) {
    if (v.empty()) return 0.0;
    auto k = static_cast<std::ptrdiff_t>(nearest_rank(v.size(), level) - 1);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[static_cast<std::size_t>(k)];
}

// Median as statistics.median gives it (mean of the middle pair when even).
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

[[nodiscard]] inline double ratio(double num, double base) { return base == 0 ? 0.0 : num / base; }

// Share of `whole` that `part` saved: 1 - part/whole (0 when whole is 0).
[[nodiscard]] inline double share_saved(double part, double whole) {
    return whole == 0 ? 0.0 : 1.0 - part / whole;
}

// What one closed-loop client did, in virtual seconds.
struct ClientRecord {
    double connect_s = 0;            // ClientDriver::start ran (0: never started)
    bool started = false;
    bool finished = false;           // every round completed
    double finished_s = 0;           // last round's last byte (when finished)
    std::vector<double> round_s;     // durations of the completed rounds, in order
};

// Absolute completion time of each completed round. A finished client's
// times are exact, counted back from its last byte; an unfinished client's
// are counted forward from its connect, which places them early by the
// handshake time (ClientDriver does not expose when round 0 began).
[[nodiscard]] inline std::vector<double> round_completions(const ClientRecord& c) {
    std::vector<double> at(c.round_s.size());
    if (c.finished) {
        double t = c.finished_s;
        for (std::size_t k = c.round_s.size(); k-- > 0;) {
            at[k] = t;
            t -= c.round_s[k];
        }
    } else {
        double t = c.connect_s;
        for (std::size_t k = 0; k < c.round_s.size(); ++k) {
            t += c.round_s[k];
            at[k] = t;
        }
    }
    return at;
}

struct RoundLedger {
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::vector<double> latency_s;  // one per attempted round, censored ones included

    [[nodiscard]] std::uint64_t failed() const { return attempted - completed; }
    [[nodiscard]] double failed_share() const {
        return ratio(static_cast<double>(failed()), static_cast<double>(attempted));
    }
    [[nodiscard]] double completed_share() const {
        return ratio(static_cast<double>(completed), static_cast<double>(attempted));
    }
};

[[nodiscard]] inline RoundLedger round_ledger(const std::vector<ClientRecord>& clients,
                                              std::uint32_t rounds_per_client,
                                              double deadline_s) {
    RoundLedger l;
    l.latency_s.reserve(clients.size() * rounds_per_client);
    for (const ClientRecord& c : clients) {
        std::size_t done = std::min<std::size_t>(c.round_s.size(), rounds_per_client);
        l.attempted += rounds_per_client;
        l.completed += done;
        l.latency_s.insert(l.latency_s.end(), c.round_s.begin(),
                           c.round_s.begin() + static_cast<std::ptrdiff_t>(done));
        if (done == rounds_per_client) continue;
        double waiting_since = c.started ? c.connect_s : deadline_s;
        if (c.started && done > 0) waiting_since = round_completions(c)[done - 1];
        double censored = std::max(0.0, deadline_s - waiting_since);
        l.latency_s.insert(l.latency_s.end(), rounds_per_client - done, censored);
    }
    return l;
}

// Per client that was waiting on a round when the crash hit: crash -> first
// round completed after it (a response of one segment: its first verified
// byte). A client with no completion after the crash is censored at the
// deadline; a client idle at the crash contributes nothing.
[[nodiscard]] inline std::vector<double> crash_stalls(const std::vector<ClientRecord>& clients,
                                                      double crash_s, double deadline_s) {
    std::vector<double> out;
    for (const ClientRecord& c : clients) {
        if (!c.started || c.connect_s > crash_s) continue;
        if (c.finished && c.finished_s <= crash_s) continue;
        double stall = deadline_s - crash_s;
        for (double at : round_completions(c)) {
            if (at > crash_s) {
                stall = at - crash_s;
                break;
            }
        }
        out.push_back(stall);
    }
    return out;
}

// First connect -> last verified byte over every client (Table 1's "total
// time"); an unfinished client's last byte is taken at its last completed
// round.
[[nodiscard]] inline double completion_span(const std::vector<ClientRecord>& clients) {
    double first = 0, last = 0;
    bool any = false;
    for (const ClientRecord& c : clients) {
        if (!c.started) continue;
        double end = c.connect_s;
        if (c.finished) {
            end = c.finished_s;
        } else if (!c.round_s.empty()) {
            end = round_completions(c).back();
        }
        first = any ? std::min(first, c.connect_s) : c.connect_s;
        last = any ? std::max(last, end) : end;
        any = true;
    }
    return last - first;
}

} // namespace stbench
