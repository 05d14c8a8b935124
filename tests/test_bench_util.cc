/**
 * @file
 * Tests of the bench option-parsing helpers: --refs/--seed/--quick,
 * registered extra flags (--jobs and --format among them), and the
 * comma-list parsers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace memwall;

namespace {

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
        : strings_(args.begin(), args.end())
    {
        for (auto &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(BenchUtil, DefaultsWithNoArguments)
{
    Argv a{"bench"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.refs, 0u);
    EXPECT_FALSE(opt.quick);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_EQ(opt.jobs, benchutil::defaultJobs());
    EXPECT_TRUE(opt.extra.empty());
}

TEST(BenchUtil, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(benchutil::defaultJobs(), 1u);
}

TEST(BenchUtil, ParsesCoreFlags)
{
    Argv a{"bench", "--refs", "500000", "--quick", "--seed", "7",
           "--jobs", "3"};
    const auto opt = benchutil::parse(a.argc(), a.argv(), {"--jobs"});
    EXPECT_EQ(opt.refs, 500000u);
    EXPECT_TRUE(opt.quick);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.jobs, 3u);
}

TEST(BenchUtil, JobsZeroMeansHardwareDefault)
{
    Argv a{"bench", "--jobs", "0"};
    const auto opt = benchutil::parse(a.argc(), a.argv(), {"--jobs"});
    EXPECT_EQ(opt.jobs, benchutil::defaultJobs());
}

TEST(BenchUtil, HexAndDecimalValues)
{
    Argv a{"bench", "--seed", "0x10", "--refs", "0x400"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.seed, 16u);
    EXPECT_EQ(opt.refs, 1024u);
}

TEST(BenchUtil, ExtraFlagsLandInMap)
{
    Argv a{"bench", "--reseeds", "0,777,31415", "--jobs", "2",
           "--mode", "fast"};
    const auto opt = benchutil::parse(a.argc(), a.argv(),
                                      {"--jobs", "--reseeds", "--mode"});
    EXPECT_EQ(opt.jobs, 2u);
    EXPECT_EQ(opt.extraOr("--reseeds", ""), "0,777,31415");
    EXPECT_EQ(opt.extraOr("--mode", ""), "fast");
    EXPECT_EQ(opt.extraOr("--absent", "dflt"), "dflt");
}

TEST(BenchUtilDeathTest, UnknownFlagExitsWithUsage)
{
    Argv a{"bench", "--bogus"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "usage:");
}

TEST(BenchUtilDeathTest, UnknownFlagIsNamedInTheError)
{
    Argv a{"bench", "--bogus"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "unknown flag '--bogus'");
}

TEST(BenchUtilDeathTest, UnregisteredExtraFlagExits)
{
    Argv a{"bench", "--mode", "fast"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2), "usage:");
}

TEST(BenchUtilDeathTest, MissingValueNamesTheFlag)
{
    Argv a{"bench", "--seed"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "missing value for --seed");
}

TEST(BenchUtilDeathTest, MissingValueForExtraFlag)
{
    Argv a{"bench", "--reseeds"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2),
                "missing value for --reseeds");
}

TEST(BenchUtilDeathTest, NonNumericValueRejected)
{
    // Silently mapping `--jobs abc` to the hardware default hid
    // typos; it must be a named parse error instead.
    Argv a{"bench", "--jobs", "abc"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--jobs"}),
                testing::ExitedWithCode(2),
                "invalid value 'abc' for --jobs");
}

TEST(BenchUtilDeathTest, TrailingJunkInValueRejected)
{
    Argv a{"bench", "--refs", "12x"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "invalid value '12x' for --refs");
}

TEST(BenchUtilDeathTest, FormatRejectedUnlessRegistered)
{
    // A bench without a JSON renderer must refuse the flag, never
    // print text under a JSON request.
    Argv a{"bench", "--format", "json"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2),
                "unknown flag '--format'");
}

TEST(BenchUtilDeathTest, JobsRejectedUnlessRegistered)
{
    // A bench that runs its points serially must refuse the flag,
    // never accept a worker count it ignores.
    Argv a{"bench", "--jobs", "2"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2),
                "unknown flag '--jobs'");
}

TEST(BenchUtilDeathTest, RegisteredJobsIsInTheUsageLine)
{
    Argv a{"bench", "--bogus"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--jobs"}),
                testing::ExitedWithCode(2),
                "\\[--seed S\\] \\[--jobs N\\]");
}

TEST(BenchUtil, RegisteredFormatSelectsJson)
{
    Argv a{"bench", "--format", "json"};
    const auto opt =
        benchutil::parse(a.argc(), a.argv(), {"--format"});
    EXPECT_TRUE(opt.json());
    EXPECT_TRUE(opt.extra.empty());
}

TEST(BenchUtilDeathTest, RegisteredFormatRejectsOtherValues)
{
    Argv a{"bench", "--format", "xml"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--format"}),
                testing::ExitedWithCode(2),
                "invalid value 'xml' for --format");
}

TEST(BenchUtil, SplitListBasic)
{
    const auto parts = benchutil::splitList("1,2,3");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "1");
    EXPECT_EQ(parts[1], "2");
    EXPECT_EQ(parts[2], "3");
}

TEST(BenchUtil, SplitListSingleAndEmpty)
{
    EXPECT_EQ(benchutil::splitList("solo"),
              (std::vector<std::string>{"solo"}));
    EXPECT_EQ(benchutil::splitList(""),
              (std::vector<std::string>{""}));
    EXPECT_EQ(benchutil::splitList("a,,b"),
              (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(benchutil::splitList("a,"),
              (std::vector<std::string>{"a", ""}));
}

TEST(BenchUtil, ParseU64List)
{
    EXPECT_EQ(benchutil::parseU64List("0,777,0x10"),
              (std::vector<std::uint64_t>{0, 777, 16}));
}

TEST(BenchUtilCkptFlagsDeath, EmptyCkptDirIsUsageError)
{
    Argv a{"bench", "--ckpt-dir", ""};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--ckpt-dir"});
    EXPECT_EXIT(
        benchutil::checkpointDirFlag(opt, "bench", {"--ckpt-dir"}),
        testing::ExitedWithCode(2), "--ckpt-dir: empty path");
}

TEST(BenchUtilCkptFlagsDeath, CkptDirOverRegularFileIsUsageError)
{
    Argv a{"bench", "--ckpt-dir", "/etc/hostname"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--ckpt-dir"});
    EXPECT_EXIT(
        benchutil::checkpointDirFlag(opt, "bench", {"--ckpt-dir"}),
        testing::ExitedWithCode(2), "is not a directory");
}

TEST(BenchUtilCkptFlagsDeath, UncreatableCkptDirIsUsageError)
{
    Argv a{"bench", "--ckpt-dir", "/nonexistent/deep/dir"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--ckpt-dir"});
    EXPECT_EXIT(
        benchutil::checkpointDirFlag(opt, "bench", {"--ckpt-dir"}),
        testing::ExitedWithCode(2),
        "cannot create '/nonexistent/deep/dir'");
}

TEST(BenchUtilCkptFlags, AbsentCkptDirReturnsEmpty)
{
    Argv a{"bench"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--ckpt-dir"});
    EXPECT_EQ(
        benchutil::checkpointDirFlag(opt, "bench", {"--ckpt-dir"}),
        "");
}

TEST(BenchUtilCkptFlags, CkptDirIsCreatedWhenMissing)
{
    const std::string dir =
        ::testing::TempDir() + "benchutil-ckpt-dir";
    const std::string cleanup = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
    Argv a{"bench", "--ckpt-dir", dir.c_str()};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--ckpt-dir"});
    EXPECT_EQ(
        benchutil::checkpointDirFlag(opt, "bench", {"--ckpt-dir"}),
        dir);
    struct stat st;
    EXPECT_EQ(::stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    rc = std::system(cleanup.c_str());
}

TEST(BenchUtilCkptFlagsDeath, EmptyResumePathIsUsageError)
{
    Argv a{"bench", "--resume", ""};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--resume"});
    EXPECT_EXIT(
        benchutil::resumePathFlag(opt, "bench", {"--resume"}),
        testing::ExitedWithCode(2), "--resume: empty path");
}

TEST(BenchUtilCkptFlagsDeath, ResumeOverDirectoryIsUsageError)
{
    Argv a{"bench", "--resume", "/tmp"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--resume"});
    EXPECT_EXIT(
        benchutil::resumePathFlag(opt, "bench", {"--resume"}),
        testing::ExitedWithCode(2), "is not a regular file");
}

TEST(BenchUtilCkptFlagsDeath, ResumeInUnwritableDirIsUsageError)
{
    Argv a{"bench", "--resume", "/nonexistent/dir/run.mwsj"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--resume"});
    EXPECT_EXIT(
        benchutil::resumePathFlag(opt, "bench", {"--resume"}),
        testing::ExitedWithCode(2), "is not writable");
}

TEST(BenchUtilCkptFlagsDeath, ResumeStatFailureNamesPathAndErrno)
{
    // stat("/dev/null/x") fails with ENOTDIR (not ENOENT), so the
    // error must surface the failing path and the errno text rather
    // than being treated as a creatable fresh journal.
    Argv a{"bench", "--resume", "/dev/null/x.mwsj"};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--resume"});
    EXPECT_EXIT(
        benchutil::resumePathFlag(opt, "bench", {"--resume"}),
        testing::ExitedWithCode(2),
        "cannot stat '/dev/null/x\\.mwsj': Not a directory");
}

TEST(BenchUtilCkptFlags, ResumeAcceptsFreshPathInWritableDir)
{
    const std::string path = ::testing::TempDir() + "fresh.mwsj";
    ::unlink(path.c_str());
    Argv a{"bench", "--resume", path.c_str()};
    auto opt = benchutil::parse(a.argc(), a.argv(), {"--resume"});
    EXPECT_EQ(benchutil::resumePathFlag(opt, "bench", {"--resume"}),
              path);
}

} // namespace
