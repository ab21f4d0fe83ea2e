#include "dynamics/workload.hpp"

#include <cmath>
#include <cstdio>

#include "util/assertions.hpp"

namespace dlb {

namespace {

/// Knuth's product-of-uniforms draw with threshold `limit` = exp(−λ);
/// valid for λ <= kPoissonProductCap (the limit underflows for λ beyond
/// ~745, and the method degenerates long before that).
Load poisson_product(Rng& rng, double limit) {
  double p = 1.0;
  Load k = 0;
  do {
    ++k;
    p *= rng.uniform_real();
  } while (p > limit);
  return k - 1;
}

/// Acklam's rational approximation to the standard normal inverse CDF
/// (absolute error < 1.15e-9 over (0, 1)). Uses only log and sqrt, so a
/// draw is as platform-deterministic as the product method's exp.
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

PoissonSampler::PoissonSampler(double lambda) : lambda_(lambda) {
  DLB_REQUIRE(lambda >= 0.0, "Poisson rate: negative");
  // Rates past the product method's range take the additive-split and
  // normal-approximation regimes (high-traffic service scenarios); only
  // the Load ledger bounds them.
  DLB_REQUIRE(lambda <= 1e15, "Poisson rate: overflows the load ledger");
  if (lambda == 0.0) return;  // chunks_ == 0 and λ == 0: draws are 0
  if (lambda <= kPoissonProductCap) {
    chunks_ = 1;
    limit_ = std::exp(-lambda);
  } else if (lambda <= kPoissonSplitCap) {
    // Poisson is additive: the sum of m independent Poisson(λ/m) draws
    // is exactly Poisson(λ), and λ/m sits inside the product method's
    // range. Exact distribution, O(λ) uniforms total.
    chunks_ = static_cast<int>(std::ceil(lambda / kPoissonProductCap));
    limit_ = std::exp(-(lambda / chunks_));
  } else {
    sqrt_lambda_ = std::sqrt(lambda);
  }
}

Load PoissonSampler::operator()(Rng& rng) const {
  if (chunks_ > 0) {
    Load sum = 0;
    for (int i = 0; i < chunks_; ++i) sum += poisson_product(rng, limit_);
    return sum;
  }
  if (lambda_ == 0.0) return 0;
  // Normal approximation via one inverse-CDF uniform. The clamp keeps
  // the (probability 2^-53) u == 0 draw out of log(0).
  const double u =
      std::min(std::max(rng.uniform_real(), 1e-300), 1.0 - 1e-16);
  const double z = inverse_normal_cdf(u);
  const double k = std::round(lambda_ + sqrt_lambda_ * z);
  return k <= 0.0 ? 0 : static_cast<Load>(k);
}

Load poisson_draw(Rng& rng, double lambda) {
  return PoissonSampler(lambda)(rng);
}

void WorkloadProcess::prepare(Step /*t*/, std::span<const Load> /*loads*/) {}

void WorkloadProcess::prepare_parallel(Step t, std::span<const Load> loads,
                                       ThreadPool& /*pool*/) {
  prepare(t, loads);
}

void WorkloadProcess::save_state(StateWriter& /*w*/) const {}
void WorkloadProcess::load_state(StateReader& /*r*/) {}

namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

// ------------------------------------------------------------- counter --

CounterWorkload::CounterWorkload(Params params) : params_(params) {
  DLB_REQUIRE(params_.arrival_period >= 0 && params_.departure_period >= 0,
              "CounterWorkload: negative period");
  DLB_REQUIRE(params_.arrival_amount >= 0 && params_.departure_amount >= 0,
              "CounterWorkload: negative amount");
}

std::string CounterWorkload::name() const {
  return "counter(in=" + std::to_string(params_.arrival_amount) + "/" +
         std::to_string(params_.arrival_period) +
         ",out=" + std::to_string(params_.departure_amount) + "/" +
         std::to_string(params_.departure_period) + ")";
}

void CounterWorkload::reset(NodeId /*n*/, std::uint64_t /*seed*/) {}

Load CounterWorkload::delta(NodeId u, Step t) {
  const Step phase = t + static_cast<Step>(u);
  Load d = 0;
  if (params_.arrival_period > 0 && phase % params_.arrival_period == 0) {
    d += params_.arrival_amount;
  }
  if (params_.departure_period > 0 &&
      phase % params_.departure_period == params_.departure_period - 1) {
    d -= params_.departure_amount;
  }
  return d;
}

// ------------------------------------------------------------- poisson --

PoissonWorkload::PoissonWorkload(Params params)
    : params_(params),
      arrivals_(params.arrival_rate),
      departures_(params.departure_rate) {}

std::string PoissonWorkload::name() const {
  return "poisson(in=" + fmt_rate(params_.arrival_rate) +
         ",out=" + fmt_rate(params_.departure_rate) + ")";
}

void PoissonWorkload::reset(NodeId /*n*/, std::uint64_t seed) {
  seed_ = seed;
}

Load PoissonWorkload::delta(NodeId u, Step t) {
  Rng rng(stream_key(seed_, static_cast<std::uint64_t>(u),
                     static_cast<std::uint64_t>(t)));
  const Load arrivals = arrivals_(rng);
  const Load departures = departures_(rng);
  return arrivals - departures;
}

void PoissonWorkload::save_state(StateWriter& w) const { w.u64(seed_); }
void PoissonWorkload::load_state(StateReader& r) { seed_ = r.u64(); }

// --------------------------------------------------------------- burst --

BurstWorkload::BurstWorkload(Params params) : params_(params) {
  DLB_REQUIRE(params_.period >= 1, "BurstWorkload: period must be >= 1");
  DLB_REQUIRE(params_.burst >= 0, "BurstWorkload: negative burst");
  DLB_REQUIRE(params_.drain_period >= 0 && params_.drain_amount >= 0,
              "BurstWorkload: negative drain");
}

std::string BurstWorkload::name() const {
  std::string s = "burst(" + std::to_string(params_.burst) + "/" +
                  std::to_string(params_.period);
  if (params_.drain_period > 0 && params_.drain_amount > 0) {
    s += ",drain=" + std::to_string(params_.drain_amount) + "/" +
         std::to_string(params_.drain_period);
  }
  return s + ")";
}

void BurstWorkload::reset(NodeId n, std::uint64_t seed) {
  DLB_REQUIRE(n > 0, "BurstWorkload: node count must be positive");
  seed_ = seed;
  n_ = n;
  hotspot_ = -1;
  dense_round_ = false;
  affected_.clear();
}

void BurstWorkload::prepare(Step t, std::span<const Load> /*loads*/) {
  DLB_REQUIRE(n_ > 0, "BurstWorkload: reset() must run before stepping");
  if (t % params_.period == 0 && params_.burst > 0) {
    // One counter-stream draw per burst epoch; the hotspot sequence is a
    // pure function of (seed, t / period).
    hotspot_ = static_cast<NodeId>(
        stream_key(seed_, 0x6275727374ULL,
                   static_cast<std::uint64_t>(t / params_.period)) %
        static_cast<std::uint64_t>(n_));
  } else {
    hotspot_ = -1;
  }
  // A drain round touches every node — only burst-only rounds are sparse.
  dense_round_ = params_.drain_period > 0 && params_.drain_amount > 0 &&
                 t % params_.drain_period == 0;
  affected_.clear();
  if (!dense_round_ && hotspot_ >= 0) affected_.push_back(hotspot_);
}

const std::vector<NodeId>* BurstWorkload::affected_nodes() const {
  return dense_round_ ? nullptr : &affected_;
}

void BurstWorkload::save_state(StateWriter& w) const { w.u64(seed_); }
void BurstWorkload::load_state(StateReader& r) { seed_ = r.u64(); }

Load BurstWorkload::delta(NodeId u, Step t) {
  Load d = 0;
  if (u == hotspot_) d += params_.burst;
  if (params_.drain_period > 0 && t % params_.drain_period == 0) {
    d -= params_.drain_amount;
  }
  return d;
}

// ----------------------------------------------------------- adversary --

AdversarialInjector::AdversarialInjector(Params params) : params_(params) {
  DLB_REQUIRE(params_.amount >= 0, "AdversarialInjector: negative amount");
  DLB_REQUIRE(params_.period >= 1, "AdversarialInjector: period must be >= 1");
}

std::string AdversarialInjector::name() const {
  std::string s = "adversary(" + std::to_string(params_.amount) + "/" +
                  std::to_string(params_.period);
  if (params_.drain_min) s += ",drain-min";
  return s + ")";
}

void AdversarialInjector::reset(NodeId /*n*/, std::uint64_t /*seed*/) {
  target_max_ = -1;
  target_min_ = -1;
  affected_.clear();
}

void AdversarialInjector::prepare(Step t, std::span<const Load> loads) {
  if (t % params_.period != 0) {
    target_max_ = -1;
    target_min_ = -1;
    affected_.clear();
    return;
  }
  // Deterministic scan: lowest index wins ties, so the target sequence is
  // independent of thread count (the scan itself runs serially).
  NodeId arg_max = 0;
  NodeId arg_min = 0;
  for (NodeId u = 1; u < static_cast<NodeId>(loads.size()); ++u) {
    if (loads[static_cast<std::size_t>(u)] >
        loads[static_cast<std::size_t>(arg_max)]) {
      arg_max = u;
    }
    if (loads[static_cast<std::size_t>(u)] <
        loads[static_cast<std::size_t>(arg_min)]) {
      arg_min = u;
    }
  }
  target_max_ = arg_max;
  // On a perfectly flat vector argmax == argmin and the ±amount pair
  // would cancel into a permanent no-op; skip the drain for that round
  // so the injection still breaks the balance.
  target_min_ =
      params_.drain_min && arg_min != arg_max ? arg_min : NodeId{-1};
  affected_.clear();
  if (target_max_ >= 0) affected_.push_back(target_max_);
  if (target_min_ >= 0) affected_.push_back(target_min_);
}

const std::vector<NodeId>* AdversarialInjector::affected_nodes() const {
  return &affected_;
}

Load AdversarialInjector::delta(NodeId u, Step /*t*/) {
  Load d = 0;
  if (u == target_max_) d += params_.amount;
  if (u == target_min_) d -= params_.amount;
  return d;
}

}  // namespace dlb
