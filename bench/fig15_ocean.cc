/**
 * @file
 * Regenerates Figure 15: total execution time of SPLASH
 * OCEAN (128x128-grid) on 1..16 processors, the reference
 * CC-NUMA against the integrated design with and without the victim
 * cache. The whole bench is runSplashBench() in catalog_driver.hh.
 */

#include "catalog_driver.hh"

int
main(int argc, char **argv)
{
    return memwall::benchutil::runSplashBench(
        memwall::server::Experiment::Fig15Ocean, argc, argv);
}
