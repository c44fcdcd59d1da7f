/**
 * @file
 * Tests for the HTTP adapter. The routing/serialization layer is
 * driven entirely in-process through HttpServer::handle() — the
 * socket loop is a byte shuttle over the same function — plus one
 * real-socket round trip (skipped when the sandbox forbids binding).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "ecc/hamming.hh"
#include "svc/http.hh"
#include "svc/service.hh"
#include "util/rng.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::randomSecCode;
using beer::svc::HttpResponse;
using beer::svc::HttpServer;
using beer::svc::RecoveryService;
using beer::util::Rng;

namespace
{

std::string
plantedPayload(std::size_t k, std::uint64_t seed)
{
    Rng rng(seed);
    const LinearCode code = randomSecCode(k, rng);
    return serializeProfile(
        exhaustiveProfile(code, chargedPatternUnion(k, {1, 2})));
}

/** Pull the numeric job id out of a {"job_id":N} body. */
std::uint64_t
parseJobId(const std::string &body)
{
    const std::size_t colon = body.find(':');
    EXPECT_NE(colon, std::string::npos) << body;
    return std::strtoull(body.c_str() + colon + 1, nullptr, 10);
}

} // anonymous namespace

TEST(SvcHttp, HealthAndStatsRoutes)
{
    RecoveryService service;
    HttpServer server(service);

    const HttpResponse health = server.handle("GET", "/health", "");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(health.body.find("\"api_version\":1"),
              std::string::npos);

    const HttpResponse stats = server.handle("GET", "/v1/stats", "");
    EXPECT_EQ(stats.status, 200);
    EXPECT_NE(stats.body.find("\"scheduler\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"cache\""), std::string::npos);

    EXPECT_EQ(server.handle("POST", "/health", "").status, 405);
}

TEST(SvcHttp, SubmitPollListRoundTrip)
{
    RecoveryService service;
    HttpServer server(service);
    const std::string payload = plantedPayload(8, 51);

    const HttpResponse submit =
        server.handle("POST", "/v1/jobs", payload);
    ASSERT_EQ(submit.status, 202) << submit.body;
    const std::uint64_t id = parseJobId(submit.body);
    ASSERT_NE(id, 0u);

    service.drain();
    const HttpResponse poll =
        server.handle("GET", "/v1/jobs/" + std::to_string(id), "");
    EXPECT_EQ(poll.status, 200);
    EXPECT_NE(poll.body.find("\"state\":\"done\""),
              std::string::npos);
    EXPECT_NE(poll.body.find("\"succeeded\":true"),
              std::string::npos);
    EXPECT_NE(poll.body.find("\"code\":\""), std::string::npos);

    const HttpResponse list =
        server.handle("GET", "/v1/jobs?offset=0&limit=10", "");
    EXPECT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("\"total\":1"), std::string::npos);
}

TEST(SvcHttp, QueryParametersReachTheService)
{
    RecoveryService service;
    HttpServer server(service);
    const std::string payload = plantedPayload(8, 53);

    const HttpResponse first =
        server.handle("POST", "/v1/jobs", payload);
    ASSERT_EQ(first.status, 202);
    service.drain();
    ASSERT_EQ(service.health().satSolves, 1u);

    // no-cache forces a fresh solve even though the profile is cached.
    const HttpResponse second =
        server.handle("POST", "/v1/jobs?no-cache=1", payload);
    ASSERT_EQ(second.status, 202);
    service.drain();
    EXPECT_EQ(service.health().satSolves, 2u);
    const HttpResponse poll = server.handle(
        "GET", "/v1/jobs/" + std::to_string(parseJobId(second.body)),
        "");
    EXPECT_NE(poll.body.find("\"cache\":\"none\""),
              std::string::npos);

    EXPECT_EQ(
        server.handle("POST", "/v1/jobs?parity=zebra", payload)
            .status,
        400);
    // 2^64 and beyond are out of range, not wrapped to small values
    // (2^64 + 5 would otherwise read back as parity 5).
    for (const char *parity :
         {"18446744073709551616", "18446744073709551621",
          "99999999999999999999999", "184467440737095516150"}) {
        const HttpResponse overflow = server.handle(
            "POST", std::string("/v1/jobs?parity=") + parity, payload);
        EXPECT_EQ(overflow.status, 400) << parity;
        EXPECT_NE(overflow.body.find("bad parity parameter"),
                  std::string::npos)
            << parity;
    }
}

TEST(SvcHttp, ErrorsMapToStatusCodes)
{
    RecoveryService service;
    HttpServer server(service);

    EXPECT_EQ(server.handle("GET", "/nope", "").status, 404);
    EXPECT_EQ(server.handle("GET", "/v1/jobs/999", "").status, 404);
    EXPECT_EQ(server.handle("GET", "/v1/jobs/abc", "").status, 400);
    EXPECT_EQ(server.handle("DELETE", "/v1/jobs/1", "").status, 405);
    const HttpResponse bad =
        server.handle("POST", "/v1/jobs", "not a profile");
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("\"error\""), std::string::npos);
}

TEST(SvcHttp, SocketRoundTrip)
{
    RecoveryService service;
    HttpServer server(service);
    if (!server.start())
        GTEST_SKIP() << "cannot bind a loopback socket here";
    ASSERT_NE(server.port(), 0);

    std::thread serving([&] { server.serve(); });

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, (const sockaddr *)&addr, sizeof(addr)), 0)
        << std::strerror(errno);

    const std::string request =
        "GET /health HTTP/1.1\r\nHost: localhost\r\n"
        "Connection: close\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              (ssize_t)request.size());

    std::string response;
    char buf[4096];
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, (std::size_t)got);
    ::close(fd);

    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos);

    server.stop();
    serving.join();
}

TEST(SvcHttp, HealthExposesJournalAndQuorumCounters)
{
    RecoveryService service;
    HttpServer server(service);

    // The fault-tolerance observability surface: journal byte/record/
    // compaction counters and adaptive-quorum vote totals, in both
    // /health and /v1/stats.
    for (const char *route : {"/health", "/v1/stats"}) {
        const HttpResponse response =
            server.handle("GET", route, "");
        EXPECT_EQ(response.status, 200);
        for (const char *key :
             {"\"journal\":{", "\"bytes\":", "\"records\":",
              "\"compactions\":", "\"crc_skipped\":",
              "\"torn_tail\":", "\"append_failures\":",
              "\"quorum\":{", "\"votes_spent\":", "\"escalations\":"})
            EXPECT_NE(response.body.find(key), std::string::npos)
                << route << " missing " << key;
    }
}

TEST(SvcHttp, SurvivesAcceptStormAndMidResponseResets)
{
    RecoveryService service;
    svc::ChaosSocketConfig chaos;
    chaos.seed = 7;
    chaos.acceptFailures = 2;  // storm: first accepts die in backlog
    chaos.resetEverySends = 3; // every 3rd response loses its client
    svc::ChaosSocketIo chaos_io(chaos);

    svc::HttpConfig http;
    http.socketIo = &chaos_io;
    HttpServer server(service, http);
    if (!server.start())
        GTEST_SKIP() << "cannot bind a loopback socket here";
    std::thread serving([&] { server.serve(); });

    const auto fetch_health = [&]() -> std::string {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr),
                  1);
        if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) !=
            0) {
            ::close(fd);
            return "";
        }
        const std::string request =
            "GET /health HTTP/1.1\r\nHost: localhost\r\n"
            "Connection: close\r\n\r\n";
        (void)!::send(fd, request.data(), request.size(), 0);
        std::string response;
        char buf[4096];
        ssize_t got;
        while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
            response.append(buf, (std::size_t)got);
        ::close(fd);
        return response;
    };

    std::size_t successes = 0;
    for (int i = 0; i < 9; ++i)
        if (fetch_health().find("HTTP/1.1 200 OK") !=
            std::string::npos)
            ++successes;

    // The chaos really fired: the storm ate accepts and some clients
    // lost their response mid-flight — yet most requests served fine.
    EXPECT_EQ(chaos_io.acceptFaults(), 2u);
    EXPECT_GT(chaos_io.resets(), 0u);
    EXPECT_GE(successes, 5u);
    EXPECT_LT(successes, 9u);

    // And the server is still fully alive afterwards.
    EXPECT_NE(fetch_health().find("\"ok\":true"), std::string::npos);

    server.stop();
    serving.join();
}

TEST(SvcHttp, TaxonomyAndResilienceFieldsSurface)
{
    svc::ServiceConfig config;
    config.jobPolicy.maxRetries = 1;
    config.onJobStart = [](svc::JobId) {
        throw std::runtime_error("injected");
    };
    RecoveryService service(config);
    HttpServer server(service);

    const HttpResponse submit =
        server.handle("POST", "/v1/jobs", plantedPayload(8, 57));
    ASSERT_EQ(submit.status, 202) << submit.body;
    const std::uint64_t id = parseJobId(submit.body);
    ASSERT_TRUE(service.waitForJob(id));

    // The poll carries the quarantine state, the taxonomy code, the
    // attempt count, and the raw failure string.
    const HttpResponse poll =
        server.handle("GET", "/v1/jobs/" + std::to_string(id), "");
    EXPECT_EQ(poll.status, 200);
    EXPECT_NE(poll.body.find("\"state\":\"quarantined\""),
              std::string::npos)
        << poll.body;
    EXPECT_NE(poll.body.find("\"error_code\":\"internal\""),
              std::string::npos);
    EXPECT_NE(poll.body.find("\"attempts\":2"), std::string::npos);
    EXPECT_NE(poll.body.find("\"error\":\"injected\""),
              std::string::npos);

    // Health exposes the retry/quarantine/journal counters.
    const HttpResponse health = server.handle("GET", "/health", "");
    EXPECT_NE(health.body.find("\"retries\":1"), std::string::npos);
    EXPECT_NE(health.body.find("\"quarantined\":1"),
              std::string::npos);
    EXPECT_NE(health.body.find("\"journal_replays\":0"),
              std::string::npos);
    EXPECT_NE(health.body.find("\"expired\":0"), std::string::npos);
}
