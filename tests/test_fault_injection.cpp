/**
 * @file
 * Tests for the deterministic fault-injection subsystem
 * (common/fault_injection.hpp) and its integration with the sys_io
 * seam (common/sys_io.hpp): spec parsing, per-mode firing schedules,
 * cross-instance determinism, per-site isolation, and that injected
 * errnos actually surface through (or are retried by) the wrappers.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "common/fault_injection.hpp"
#include "common/sys_io.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

// ---------------------------------------------------------------- parse

TEST(FaultSpecParse, EveryMode)
{
    std::string err;
    const auto spec = FaultInjector::parseSpec("every:3:ENOSPC", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->mode, FaultSpec::Mode::EveryN);
    EXPECT_EQ(spec->n, 3u);
    EXPECT_EQ(spec->error, ENOSPC);
}

TEST(FaultSpecParse, OnceModeDefaultsToEio)
{
    std::string err;
    const auto spec = FaultInjector::parseSpec("once:7", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->mode, FaultSpec::Mode::Once);
    EXPECT_EQ(spec->n, 7u);
    EXPECT_EQ(spec->error, EIO);
}

TEST(FaultSpecParse, ProbabilityMode)
{
    std::string err;
    const auto spec = FaultInjector::parseSpec("p:0.25:42:EINTR", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->mode, FaultSpec::Mode::Probability);
    EXPECT_DOUBLE_EQ(spec->p, 0.25);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_EQ(spec->error, EINTR);
}

TEST(FaultSpecParse, NumericErrnoAccepted)
{
    std::string err;
    const auto spec = FaultInjector::parseSpec("every:1:28", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->error, 28);
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",            // empty
        "every",       // missing N
        "every:0",     // zero period
        "every:x",     // non-numeric
        "every:1:EBOGUS", // unknown errno
        "once:1:2:3",  // trailing junk
        "p:0.5",       // missing seed
        "p:1.5:1",     // probability out of range
        "p:0.5:notanum", // bad seed
        "sometimes:3", // unknown mode
    };
    for (const char *spec : bad) {
        std::string err;
        EXPECT_FALSE(FaultInjector::parseSpec(spec, &err))
            << "accepted '" << spec << "'";
        EXPECT_FALSE(err.empty()) << "no diagnostic for '" << spec << "'";
    }
}

TEST(FaultSpecParse, ErrnoNames)
{
    EXPECT_EQ(FaultInjector::errnoFromName("ENOSPC"), ENOSPC);
    EXPECT_EQ(FaultInjector::errnoFromName("ECONNRESET"), ECONNRESET);
    EXPECT_EQ(FaultInjector::errnoFromName("17"), 17);
    EXPECT_EQ(FaultInjector::errnoFromName("EWOULDBLOCKISH"), 0);
    EXPECT_EQ(FaultInjector::errnoFromName("0"), 0);
    EXPECT_EQ(FaultInjector::errnoFromName("-3"), 0);
}

// ------------------------------------------------------------ configure

TEST(FaultInjectorConfig, StartsDisarmed)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.armed());
    EXPECT_EQ(inj.check("any.site"), 0);
}

TEST(FaultInjectorConfig, MalformedConfigRejectedAtomically)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.site:every:2:ENOSPC"));
    EXPECT_TRUE(inj.armed());

    std::string err;
    EXPECT_FALSE(inj.configure("test.site:every:2,b:bogus", &err));
    EXPECT_FALSE(err.empty());
    // The old config survives a failed reconfigure.
    EXPECT_TRUE(inj.armed());
    EXPECT_EQ(inj.check("test.site"), 0);
    EXPECT_EQ(inj.check("test.site"), ENOSPC);
}

TEST(FaultInjectorConfig, EmptyConfigDisarms)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.site:every:1"));
    ASSERT_TRUE(inj.configure(""));
    EXPECT_FALSE(inj.armed());
}

TEST(FaultInjectorConfig, MissingSiteNameRejected)
{
    FaultInjector inj;
    std::string err;
    EXPECT_FALSE(inj.configure(":every:1", &err));
    EXPECT_FALSE(inj.configure("justasite", &err));
}

// -------------------------------------------------------------- firing

TEST(FaultInjectorFiring, EveryNSchedule)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.s:every:3:ENOSPC"));
    std::vector<int> got;
    for (int i = 0; i < 7; ++i)
        got.push_back(inj.check("test.s"));
    EXPECT_EQ(got, (std::vector<int>{0, 0, ENOSPC, 0, 0, ENOSPC, 0}));
    EXPECT_EQ(inj.calls("test.s"), 7u);
    EXPECT_EQ(inj.injected("test.s"), 2u);
    EXPECT_EQ(inj.totalInjected(), 2u);
}

TEST(FaultInjectorFiring, OnceFiresExactlyOnce)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.s:once:2:EIO"));
    EXPECT_EQ(inj.check("test.s"), 0);
    EXPECT_EQ(inj.check("test.s"), EIO);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(inj.check("test.s"), 0);
    EXPECT_EQ(inj.injected("test.s"), 1u);
}

TEST(FaultInjectorFiring, ProbabilityIsDeterministicAcrossInstances)
{
    FaultInjector a, b;
    ASSERT_TRUE(a.configure("test.s:p:0.3:1234:EIO"));
    ASSERT_TRUE(b.configure("test.s:p:0.3:1234:EIO"));
    std::vector<int> seq_a, seq_b;
    for (int i = 0; i < 200; ++i) {
        seq_a.push_back(a.check("test.s"));
        seq_b.push_back(b.check("test.s"));
    }
    EXPECT_EQ(seq_a, seq_b);
    // p=0.3 over 200 draws: some fire, some don't.
    EXPECT_GT(a.injected("test.s"), 0u);
    EXPECT_LT(a.injected("test.s"), 200u);
}

TEST(FaultInjectorFiring, ProbabilitySitesGetIndependentStreams)
{
    // Same seed, two sites: the per-site RNG is seeded with
    // seed ^ fnv1a64(site), so the sequences must differ.
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.s1:p:0.5:9:EIO,test.s2:p:0.5:9:EIO"));
    std::vector<int> seq1, seq2;
    for (int i = 0; i < 64; ++i) {
        seq1.push_back(inj.check("test.s1"));
        seq2.push_back(inj.check("test.s2"));
    }
    EXPECT_NE(seq1, seq2);
}

TEST(FaultInjectorFiring, SitesAreIsolated)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.a:every:1:ENOSPC,test.b:once:1:EIO"));
    EXPECT_EQ(inj.check("test.a"), ENOSPC);
    EXPECT_EQ(inj.check("test.c"), 0); // unconfigured site never fires
    EXPECT_EQ(inj.check("test.b"), EIO);
    EXPECT_EQ(inj.check("test.b"), 0);
    EXPECT_EQ(inj.calls("test.a"), 1u);
    EXPECT_EQ(inj.calls("test.b"), 2u);
    EXPECT_EQ(inj.calls("test.c"), 0u); // not even tracked
    EXPECT_EQ(inj.totalInjected(), 2u);
}

TEST(FaultInjectorFiring, ClearResetsCountersAndDisarms)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("test.s:every:1"));
    EXPECT_NE(inj.check("test.s"), 0);
    inj.clear();
    EXPECT_FALSE(inj.armed());
    EXPECT_EQ(inj.totalInjected(), 0u);
    EXPECT_EQ(inj.check("test.s"), 0);
}

// ------------------------------------------------- sys_io integration

/** Configures the process-global injector for one test and guarantees
 *  it is cleared again (a leaked config would poison later tests). */
class GlobalFaultGuard
{
  public:
    explicit GlobalFaultGuard(const std::string &config)
    {
        std::string err;
        ok_ = FaultInjector::global().configure(config, &err);
        EXPECT_TRUE(ok_) << err;
    }
    ~GlobalFaultGuard() { FaultInjector::global().clear(); }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

TEST(SysIoFaults, InjectedEnospcFailsWriteWithErrnoSet)
{
    const std::string path = test::tempPath("sysio_enospc.txt");
    GlobalFaultGuard guard("test.w:every:1:ENOSPC");
    ASSERT_TRUE(guard.ok());

    const int fd = sysOpen(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644, "test.open");
    ASSERT_GE(fd, 0);
    errno = 0;
    EXPECT_FALSE(sysWriteAll(fd, "hello", 5, "test.w"));
    EXPECT_EQ(errno, ENOSPC);
    sysClose(fd);
    EXPECT_EQ(FaultInjector::global().injected("test.w"), 1u);
}

TEST(SysIoFaults, InjectedEintrOnWriteIsRetriedTransparently)
{
    const std::string path = test::tempPath("sysio_eintr.txt");
    GlobalFaultGuard guard("test.w:once:1:EINTR");
    ASSERT_TRUE(guard.ok());

    const int fd = sysOpen(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644, "test.open");
    ASSERT_GE(fd, 0);
    // The injected EINTR hits the first attempt; the wrapper's retry
    // loop must absorb it and complete the write.
    EXPECT_TRUE(sysWriteAll(fd, "payload", 7, "test.w"));
    sysClose(fd);
    EXPECT_EQ(FaultInjector::global().injected("test.w"), 1u);

    const int rfd = sysOpen(path.c_str(), O_RDONLY, 0, "test.open");
    ASSERT_GE(rfd, 0);
    char buf[16] = {};
    EXPECT_EQ(sysRead(rfd, buf, sizeof(buf), "test.r"), 7);
    EXPECT_EQ(std::string(buf, 7), "payload");
    sysClose(rfd);
}

TEST(SysIoFaults, InjectedEintrOnPollHonorsDeadline)
{
    // EINTR on *every* poll attempt: the deadline-based retry must
    // still return 0 (timeout) instead of spinning forever or waiting
    // longer than asked.
    GlobalFaultGuard guard("test.poll:every:1:EINTR");
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(sysPoll(nullptr, 0, 30, "test.poll"), 0);
    EXPECT_GT(FaultInjector::global().injected("test.poll"), 0u);
}

#ifdef __linux__

TEST(SysIoFaults, InjectedEintrOnEpollWaitHonorsDeadline)
{
    // Same deadline contract as sysPoll, for the epoll wrapper: EINTR
    // on every attempt must degrade to a timely 0-return (timeout),
    // never a spin or an over-wait.
    const int epfd = sysEpollCreate("test.epcreate");
    ASSERT_GE(epfd, 0);
    GlobalFaultGuard guard("test.epwait:every:1:EINTR");
    ASSERT_TRUE(guard.ok());
    struct epoll_event evs[4];
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(sysEpollWait(epfd, evs, 4, 40, "test.epwait"), 0);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(elapsed, 35);
    EXPECT_LE(elapsed, 2000);
    EXPECT_GT(FaultInjector::global().injected("test.epwait"), 0u);
    sysClose(epfd);
}

TEST(SysIoFaults, InjectedEpollCreateFailure)
{
    GlobalFaultGuard guard("test.epcreate:once:1:EMFILE");
    ASSERT_TRUE(guard.ok());
    errno = 0;
    EXPECT_LT(sysEpollCreate("test.epcreate"), 0);
    EXPECT_EQ(errno, EMFILE);
    // once:1 spent: the next create succeeds.
    const int epfd = sysEpollCreate("test.epcreate");
    EXPECT_GE(epfd, 0);
    sysClose(epfd);
}

TEST(SysIoFaults, InjectedEpollCtlFailureSurfacesErrno)
{
    const int epfd = sysEpollCreate("test.epcreate");
    ASSERT_GE(epfd, 0);
    int pipefds[2];
    ASSERT_EQ(::pipe(pipefds), 0);
    GlobalFaultGuard guard("test.epctl:once:1:ENOMEM");
    ASSERT_TRUE(guard.ok());
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = pipefds[0];
    errno = 0;
    EXPECT_NE(sysEpollCtl(epfd, EPOLL_CTL_ADD, pipefds[0], &ev,
                          "test.epctl"),
              0);
    EXPECT_EQ(errno, ENOMEM);
    // Spent: the same registration now succeeds.
    EXPECT_EQ(sysEpollCtl(epfd, EPOLL_CTL_ADD, pipefds[0], &ev,
                          "test.epctl"),
              0);
    ::close(pipefds[0]);
    ::close(pipefds[1]);
    sysClose(epfd);
}

#endif // __linux__

TEST(SysIoFaults, InjectedOpenFailure)
{
    const std::string path = test::tempPath("sysio_open.txt");
    GlobalFaultGuard guard("test.open:once:1:EACCES");
    ASSERT_TRUE(guard.ok());
    errno = 0;
    EXPECT_LT(sysOpen(path.c_str(), O_WRONLY | O_CREAT, 0644,
                      "test.open"),
              0);
    EXPECT_EQ(errno, EACCES);
    // Second open proceeds (once:1 spent).
    const int fd = sysOpen(path.c_str(), O_WRONLY | O_CREAT, 0644,
                           "test.open");
    EXPECT_GE(fd, 0);
    sysClose(fd);
}

TEST(SysIoFaults, InjectedRenameFailure)
{
    GlobalFaultGuard guard("test.mv:every:1:EIO");
    ASSERT_TRUE(guard.ok());
    errno = 0;
    EXPECT_NE(sysRename("/nonexistent/a", "/nonexistent/b", "test.mv"),
              0);
    EXPECT_EQ(errno, EIO); // injected before the real call could ENOENT
}

TEST(SysIoFaults, DisarmedSeamTouchesNoCounters)
{
    FaultInjector &g = FaultInjector::global();
    g.clear();
    const std::string path = test::tempPath("sysio_clean.txt");
    const int fd = sysOpen(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644, "store.open");
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(sysWriteAll(fd, "x", 1, "store.append"));
    sysClose(fd);
    EXPECT_FALSE(g.armed());
    EXPECT_EQ(g.totalInjected(), 0u);
    EXPECT_EQ(g.calls("store.append"), 0u);
}

} // namespace
} // namespace mse
