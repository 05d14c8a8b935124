/**
 * @file
 * Regenerates Figure 16: total execution time of SPLASH WATER
 * (288-molecules-4-steps) on 1..16 processors, comparing the
 * reference CC-NUMA (16 KB FLC + infinite SLC) against the
 * integrated design with and without the victim cache.
 *
 * The points, --nodes, --sample and --format json come from the
 * catalog driver (catalog_driver.hh). Exits 1 if the architectures
 * disagree on the kernel's checksum.
 */

#include <iostream>

#include "catalog_driver.hh"
#include "workloads/splash_figures.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    constexpr SplashFigure fig = SplashFigure::Fig16Water;
    const auto run =
        benchutil::runCatalog(server::Experiment::Fig16Water, argc, argv);
    const auto points = run.results<SplashResult>();
    if (!run.opt.json()) {
        benchutil::banner(
            "Figure 16 - SPLASH water (288-molecules-4-steps)", run.opt);
        printSplashFigureText(
            std::cout, fig, resolveSplashScale(fig, run.opt.quick),
            run.request.nodes, run.plan(), points);
    }
    return splashChecksumsMatch(points) ? 0 : 1;
}
