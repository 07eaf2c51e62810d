#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>

#ifndef PDR_EXPERIMENTS_DIR
#define PDR_EXPERIMENTS_DIR "experiments"
#endif

namespace pdr::bench {

void
banner(const std::string &title, const std::string &what)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==============================================="
                "=============================\n");
}

std::string
experimentFile(const std::string &name)
{
    const char *dir = std::getenv("PDR_EXPERIMENTS_DIR");
    std::string base = dir && dir[0] ? dir : PDR_EXPERIMENTS_DIR;
    return base + "/" + name;
}

api::Experiment
loadExperiment(const std::string &name)
{
    auto exp = api::Experiment::load(experimentFile(name));
    exp.applyEnv();
    return exp;
}

} // namespace pdr::bench
