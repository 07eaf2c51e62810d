/**
 * @file
 * Generic string-keyed factory registry.
 *
 * The simulator's extension points (traffic patterns, topologies,
 * routing functions) each expose a registry so new scenarios register
 * themselves in one line instead of widening an enum switch:
 *
 *   traffic::PatternRegistry::instance().add(
 *       "reverse",
 *       [](const traffic::PatternEnv &env) { return reverse(env); },
 *       "every node sends to its mirror index");
 *
 * Lookups throw std::invalid_argument with the unknown name and the
 * list of registered names, so configuration errors are reported
 * per-point by the sweep engine / CLI instead of killing the process.
 *
 * Registration is expected at startup (before sweeps spawn workers);
 * concurrent lookups are safe once registration is done.
 */

#ifndef PDR_COMMON_REGISTRY_HH
#define PDR_COMMON_REGISTRY_HH

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pdr {

/** Name -> (factory, description) map with precise lookup errors. */
template <typename Spec>
class FactoryRegistry
{
  public:
    explicit FactoryRegistry(std::string what) : what_(std::move(what)) {}

    /** Register (or replace) an entry under `name`. */
    void
    add(const std::string &name, Spec spec, std::string description)
    {
        entries_[name] = {std::move(spec), std::move(description)};
    }

    bool
    contains(const std::string &name) const
    {
        return entries_.count(name) != 0;
    }

    /** Entry for `name`; throws std::invalid_argument when unknown. */
    const Spec &
    at(const std::string &name) const
    {
        auto it = entries_.find(name);
        if (it == entries_.end()) {
            std::string known;
            for (const auto &[n, e] : entries_)
                known += (known.empty() ? "" : ", ") + n;
            throw std::invalid_argument("unknown " + what_ + " '" +
                                        name + "' (known: " + known +
                                        ")");
        }
        return it->second.first;
    }

    const std::string &
    description(const std::string &name) const
    {
        auto it = entries_.find(name);
        if (it == entries_.end())
            at(name);  // Throws with the name list.
        return it->second.second;
    }

    /** Registered names in sorted order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &[n, e] : entries_)
            out.push_back(n);
        return out;
    }

  private:
    std::string what_;
    std::map<std::string, std::pair<Spec, std::string>> entries_;
};

} // namespace pdr

#endif // PDR_COMMON_REGISTRY_HH
