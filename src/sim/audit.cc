#include "sim/audit.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace pdr::sim {

bool
Auditor::envEnabled()
{
    const char *env = std::getenv("PDR_AUDIT");
    if (!env)
        return false;
    return std::strcmp(env, "1") == 0 ||
           std::strcmp(env, "true") == 0 ||
           std::strcmp(env, "yes") == 0 || std::strcmp(env, "on") == 0;
}

void
Auditor::fail(Cycle at, const std::string &who, const char *check,
              const std::string &detail)
{
    throw AuditError(csprintf("[%s] cycle %llu, %s: %s", check,
                              static_cast<unsigned long long>(at),
                              who.c_str(), detail.c_str()));
}

} // namespace pdr::sim
