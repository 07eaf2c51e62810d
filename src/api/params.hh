/**
 * @file
 * Declarative experiment API: a string-keyed parameter schema over
 * SimConfig, plus INI-style experiment descriptions.
 *
 * Every simulation parameter binds to a dotted key (`net.k`,
 * `router.model`, `traffic.pattern`, `sim.mode`, ...).  params::set /
 * params::get convert between the typed SimConfig fields and strings
 * with full validation -- errors throw std::invalid_argument naming the
 * key, so the CLI and sweep engine report them per point instead of
 * dying.  params::dump emits the whole effective config as `key=value`
 * lines and params::parse reads them back losslessly:
 * parse(dump(cfg)) == cfg.
 *
 * An Experiment adds sweep structure on top of one base config:
 *
 *   name = fig18
 *   net.k = 8
 *   router.model = specVC
 *   router.num_vcs = 2
 *   router.buf_depth = 4
 *   sweep.loads = 0.05 0.1 0.15 0.2
 *   [curve specVC cp=1]
 *   net.credit_latency = 1
 *   [curve specVC cp=4]
 *   net.credit_latency = 4
 *
 * `sweep.loads` is the offered-load axis; `sweep.<param.key> = v1 v2`
 * adds an axis over any other parameter.  Each `[curve LABEL]` section
 * overrides base keys for one labelled series.  Experiment::points()
 * expands axes (outermost first) x curves (innermost) into the sweep
 * engine's point list; `pdr sweep --file <experiment>`, bench_fig16
 * and the examples hand that list to exec::SweepRunner unchanged.
 */

#ifndef PDR_API_PARAMS_HH
#define PDR_API_PARAMS_HH

#include <string>
#include <utility>
#include <vector>

#include "api/simulation.hh"
#include "exec/sweep.hh"

namespace pdr::api {

namespace params {

/** One schema entry: key plus human-readable description. */
struct ParamInfo
{
    std::string key;
    std::string description;
};

/** The schema, in canonical (dump) order. */
const std::vector<ParamInfo> &schema();

bool knownKey(const std::string &key);

/** Set `key` from a string; throws std::invalid_argument naming the
 *  key on unknown keys or invalid values. */
void set(SimConfig &cfg, const std::string &key,
         const std::string &value);

/** Current value of `key` as a string; throws on unknown keys. */
std::string get(const SimConfig &cfg, const std::string &key);

/** Cross-field validation (registry names, model constraints, ...);
 *  throws std::invalid_argument with a precise message. */
void validate(const SimConfig &cfg);

/** All stored keys as `key = value` lines, canonical order. */
std::string dump(const SimConfig &cfg);

/** Apply `key = value` lines (blank lines / #-comments skipped) on
 *  top of `cfg`. */
void apply(SimConfig &cfg, const std::string &text);

/** Parse lines onto a default-constructed SimConfig. */
SimConfig parse(const std::string &text);

} // namespace params

/** A declarative sweep: base config, parameter axes, labelled curves. */
struct Experiment
{
    /** The axis key `sweep.loads` is sugar for. */
    static constexpr const char *kLoadsKey = "traffic.offered_fraction";

    struct Axis
    {
        std::string key;                 //!< A params schema key.
        std::vector<std::string> values;

        bool
        operator==(const Axis &o) const
        {
            return key == o.key && values == o.values;
        }
    };

    struct Curve
    {
        std::string label;
        /** Overrides applied over the base, in order. */
        std::vector<std::pair<std::string, std::string>> overrides;

        bool
        operator==(const Curve &o) const
        {
            return label == o.label && overrides == o.overrides;
        }
    };

    std::string name;
    std::string description;
    SimConfig base;
    std::vector<Axis> axes;              //!< Outermost first.
    std::vector<Curve> curves;

    /** Parse an experiment file; throws with the line number. */
    static Experiment parse(const std::string &text);
    static Experiment load(const std::string &path);

    /** Lossless text form: parse(dump()) == *this. */
    std::string dump() const;

    /**
     * Apply one `key=value`: "name"/"description", a `sweep.` axis
     * (replacing an existing axis of the same key), or a base
     * parameter.  Used for `--key=value` CLI overrides.
     */
    void set(const std::string &key, const std::string &value);

    /**
     * Expand axes x curves into sweep points: axes vary outermost
     * first, curves innermost (point index = combination * #curves +
     * curve).  Labels are `<curve>@<load>` for the offered-load axis
     * and `<curve>/key=value` for other axes.
     */
    std::vector<exec::SweepPoint> points() const;

    /** Validate the base and every expanded point config. */
    void validate() const;

    /**
     * Fold in the environment: PDR_FAST=1 coarsens the offered-load
     * axis and caps the sample size (smoke runs), then the PDR_PACKETS
     * / PDR_WARMUP / PDR_MAX_CYCLES overrides apply to the base.  The
     * benches and the pdr CLI both call this, so their expansions stay
     * identical under any environment.
     */
    void applyEnv();

    bool
    operator==(const Experiment &o) const
    {
        return name == o.name && description == o.description &&
               base == o.base && axes == o.axes && curves == o.curves;
    }
};

} // namespace pdr::api

#endif // PDR_API_PARAMS_HH
