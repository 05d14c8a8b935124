/**
 * @file
 * Regenerates Figure 17: total execution time of SPLASH
 * PTHOR (RISC-circuit-1000-steps) on 1..16 processors, the reference
 * CC-NUMA against the integrated design with and without the victim
 * cache. The whole bench is runSplashBench() in catalog_driver.hh.
 */

#include "catalog_driver.hh"

int
main(int argc, char **argv)
{
    return memwall::benchutil::runSplashBench(
        memwall::server::Experiment::Fig17Pthor, argc, argv);
}
