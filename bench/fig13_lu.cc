/**
 * @file
 * Regenerates Figure 13: total execution time of SPLASH LU-decomposition
 * (200x200-matrix) on 1..16 processors, comparing the
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
    constexpr SplashFigure fig = SplashFigure::Fig13Lu;
    const auto run =
        benchutil::runCatalog(server::Experiment::Fig13Lu, argc, argv);
    const auto points = run.results<SplashResult>();
    if (!run.opt.json()) {
        benchutil::banner(
            "Figure 13 - SPLASH lu (200x200-matrix)", run.opt);
        printSplashFigureText(
            std::cout, fig, resolveSplashScale(fig, run.opt.quick),
            run.request.nodes, run.plan(), points);
    }
    return splashChecksumsMatch(points) ? 0 : 1;
}
