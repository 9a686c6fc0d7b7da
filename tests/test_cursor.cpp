// Cursor protocol lifecycle over the service and HTTP layers: paged
// /api/v0/query + /api/v0/query/next, invalidate-on-write (410 Gone),
// TTL reaping, LRU capacity eviction, and the health counters that
// surface all of it.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/net/client.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/model.hpp"

namespace provml::graphstore {
namespace {

/// A document with `entities` Entity nodes (ex:e0 … ex:eN-1) plus one
/// Activity generating them all — enough rows to page over.
prov::Document fixture_doc(int entities) {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_activity("ex:run", {{"provml:run_name", "run_0"}});
  for (int i = 0; i < entities; ++i) {
    const std::string id = "ex:e" + std::to_string(i);
    doc.add_entity(id, {{"provml:name", "artifact"}});
    doc.was_generated_by(id, "ex:run");
  }
  return doc;
}

YProvService fixture_service(int entities = 6) {
  YProvService service;
  EXPECT_TRUE(service.put_document("d", fixture_doc(entities)).ok());
  return service;
}

std::string envelope(const std::string& query, std::size_t page_size) {
  json::Object body;
  body.set("query", query);
  body.set("page_size", static_cast<std::int64_t>(page_size));
  return json::write(json::Value(std::move(body)));
}

std::string next_body(const std::string& token) {
  json::Object body;
  body.set("cursor", token);
  return json::write(json::Value(std::move(body)));
}

constexpr const char* kAllEntities = "MATCH (e:Entity) RETURN e";

// -------------------------------------------------------- service routes

TEST(ServiceCursor, PagesConcatenateToTheOneShotResult) {
  YProvService service = fixture_service(6);
  const Response one_shot = service.handle({"POST", "/api/v0/query", kAllEntities});
  ASSERT_EQ(one_shot.status, 200);
  const json::Value reference = json::parse(one_shot.body).take();
  ASSERT_TRUE(reference.find("rows")->is_array());
  EXPECT_FALSE(one_shot.no_store);  // legacy form stays cacheable

  Response page = service.handle({"POST", "/api/v0/query", envelope(kAllEntities, 2)});
  ASSERT_EQ(page.status, 200);
  EXPECT_TRUE(page.no_store);
  json::Array collected;
  int pages = 0;
  for (;;) {
    ++pages;
    const json::Value body = json::parse(page.body).take();
    const json::Value* columns = body.find("columns");
    ASSERT_NE(columns, nullptr);
    ASSERT_EQ(columns->as_array().size(), 1u);
    EXPECT_EQ(columns->as_array()[0].as_string(), "e");
    const json::Value* rows = body.find("rows");
    ASSERT_NE(rows, nullptr);
    EXPECT_LE(rows->as_array().size(), 2u);
    for (const json::Value& row : rows->as_array()) collected.push_back(row);
    ASSERT_NE(body.find("done"), nullptr);
    if (body.find("done")->as_bool()) {
      EXPECT_EQ(body.find("cursor"), nullptr);  // no token on the last page
      break;
    }
    const json::Value* token = body.find("cursor");
    ASSERT_NE(token, nullptr);
    page = service.handle(
        {"POST", "/api/v0/query/next", next_body(token->as_string())});
    ASSERT_EQ(page.status, 200);
    EXPECT_TRUE(page.no_store);
  }
  EXPECT_EQ(pages, 3);  // 6 rows at page_size 2
  EXPECT_TRUE(json::Value(std::move(collected)) == *reference.find("rows"));
}

TEST(ServiceCursor, EnvelopeWithoutPageSizeReturnsEverythingDone) {
  YProvService service = fixture_service(4);
  json::Object body;
  body.set("query", std::string(kAllEntities));
  const Response response = service.handle(
      {"POST", "/api/v0/query", json::write(json::Value(std::move(body)))});
  ASSERT_EQ(response.status, 200);
  const json::Value parsed = json::parse(response.body).take();
  EXPECT_TRUE(parsed.find("done")->as_bool());
  EXPECT_EQ(parsed.find("cursor"), nullptr);
  EXPECT_EQ(parsed.find("rows")->as_array().size(), 4u);
}

TEST(ServiceCursor, EnvelopeValidation) {
  YProvService service = fixture_service(2);
  // Malformed JSON (still '{'-led so it routes as an envelope).
  EXPECT_EQ(service.handle({"POST", "/api/v0/query", "{broken"}).status, 400);
  // Missing / mistyped "query".
  EXPECT_EQ(service.handle({"POST", "/api/v0/query", "{\"page_size\": 2}"}).status, 400);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query", "{\"query\": 7}"}).status, 400);
  // page_size must be a positive integer.
  EXPECT_EQ(service
                .handle({"POST", "/api/v0/query",
                         "{\"query\": \"MATCH (n) RETURN n\", \"page_size\": 0}"})
                .status,
            400);
  EXPECT_EQ(service
                .handle({"POST", "/api/v0/query",
                         "{\"query\": \"MATCH (n) RETURN n\", \"page_size\": \"2\"}"})
                .status,
            400);
  // A bad MATCH inside a valid envelope is still a 400.
  EXPECT_EQ(service.handle({"POST", "/api/v0/query", envelope("MATCH bogus", 2)}).status,
            400);
  // The next route requires a string cursor and only POST.
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", "{}"}).status, 400);
  const Response get_next = service.handle({"GET", "/api/v0/query/next", ""});
  EXPECT_EQ(get_next.status, 405);
  EXPECT_EQ(get_next.allow, "POST");
}

TEST(ServiceCursor, UnknownCursorIsGone) {
  YProvService service = fixture_service(2);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body("c999")}).status,
            410);
}

TEST(ServiceCursor, WriteBetweenPagesInvalidatesTheCursor) {
  YProvService service = fixture_service(6);
  const Response first =
      service.handle({"POST", "/api/v0/query", envelope(kAllEntities, 1)});
  ASSERT_EQ(first.status, 200);
  const json::Value body = json::parse(first.body).take();
  ASSERT_FALSE(body.find("done")->as_bool());
  const std::string token = body.find("cursor")->as_string();

  // Resume works while the graph is untouched.
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(token)}).status,
            200);

  // Any successful write bumps graph_version: the cursor must answer 410
  // from then on, never a page mixing the two graph states.
  ASSERT_TRUE(service.put_document("d2", fixture_doc(1)).ok());
  const Response gone =
      service.handle({"POST", "/api/v0/query/next", next_body(token)});
  EXPECT_EQ(gone.status, 410);
  // And the slot is freed: the same token stays gone.
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(token)}).status,
            410);
  const CursorStats stats = service.cursor_stats();
  EXPECT_EQ(stats.open, 0u);
  EXPECT_GE(stats.expired, 1u);
}

TEST(ServiceCursor, TtlExpiryReapsCursors) {
  YProvService service = fixture_service(6);
  service.set_cursor_limits(64, std::chrono::milliseconds(30));
  const Response first =
      service.handle({"POST", "/api/v0/query", envelope(kAllEntities, 1)});
  ASSERT_EQ(first.status, 200);
  const std::string token =
      json::parse(first.body).take().find("cursor")->as_string();
  EXPECT_EQ(service.cursor_stats().open, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const CursorStats stats = service.cursor_stats();
  EXPECT_EQ(stats.open, 0u);
  EXPECT_GE(stats.expired, 1u);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(token)}).status,
            410);
}

TEST(ServiceCursor, LruCapEvictsTheOldestCursor) {
  YProvService service = fixture_service(6);
  service.set_cursor_limits(2, std::chrono::minutes(10));
  std::vector<std::string> tokens;
  for (int i = 0; i < 3; ++i) {
    const Response page =
        service.handle({"POST", "/api/v0/query", envelope(kAllEntities, 1)});
    ASSERT_EQ(page.status, 200);
    tokens.push_back(json::parse(page.body).take().find("cursor")->as_string());
  }
  const CursorStats stats = service.cursor_stats();
  EXPECT_EQ(stats.open, 2u);
  EXPECT_GE(stats.expired, 1u);
  // The oldest cursor fell off; the two youngest still page.
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(tokens[0])}).status,
            410);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(tokens[1])}).status,
            200);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(tokens[2])}).status,
            200);
}

TEST(ServiceCursor, ResumingRefreshesLruRecency) {
  YProvService service = fixture_service(6);
  service.set_cursor_limits(2, std::chrono::minutes(10));
  const auto open_one = [&service]() {
    const Response page =
        service.handle({"POST", "/api/v0/query", envelope(kAllEntities, 1)});
    EXPECT_EQ(page.status, 200);
    return json::parse(page.body).take().find("cursor")->as_string();
  };
  const std::string a = open_one();
  const std::string b = open_one();
  // Touch `a`, then open a third cursor: now `b` is the LRU victim.
  ASSERT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(a)}).status, 200);
  (void)open_one();
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(a)}).status, 200);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query/next", next_body(b)}).status, 410);
}

// ------------------------------------------------------------ HTTP layer

TEST(HttpCursor, EndToEndPagingHealthCountersAndWritevBatches) {
  net::YProvHttpApp app(fixture_service(8));
  app.service().set_cursor_limits(64, std::chrono::minutes(10));
  net::ServerConfig config;
  config.threads = 2;
  net::HttpServer server(config,
                         [&app](const net::HttpRequest& r) { return app.handle(r); });
  app.set_server_stats_provider([&server] { return server.stats(); });
  ASSERT_TRUE(server.start().ok());
  net::HttpClient client("127.0.0.1", server.port());

  // One-shot reference through the legacy raw-text form.
  auto one_shot = client.post("/api/v0/query", kAllEntities);
  ASSERT_TRUE(one_shot.ok()) << one_shot.error().to_string();
  ASSERT_EQ(one_shot.value().status, 200);
  const json::Value reference = json::parse(one_shot.value().body).take();

  // Paged responses are stateful: no ETag, so no 304 short-circuit can
  // ever replay a stale page.
  auto first = client.post("/api/v0/query", envelope(kAllEntities, 3));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().status, 200);
  EXPECT_EQ(first.value().header("ETag"), nullptr);
  EXPECT_NE(one_shot.value().header("ETag"), nullptr);

  // Health gauges move while a cursor is open.
  auto health = client.get("/api/v0/health");
  ASSERT_TRUE(health.ok());
  json::Value health_body = json::parse(health.value().body).take();
  EXPECT_EQ(health_body.find("cursors_open")->as_int(), 1);

  // QueryPager drains the rest transparently; concat equals one-shot.
  const net::Exchange exchange = [&client](const std::string& method,
                                           const std::string& target,
                                           const std::string& body) {
    return client.request(method, target, body);
  };
  net::QueryPager pager(exchange, kAllEntities, 3);
  json::Array collected;
  while (!pager.done()) {
    auto page = pager.next_page();
    ASSERT_TRUE(page.ok()) << page.error().to_string();
    for (const json::Value& row : page.value().find("rows")->as_array()) {
      collected.push_back(row);
    }
  }
  EXPECT_TRUE(json::Value(std::move(collected)) == *reference.find("rows"));

  // A write between pages turns the open (undrained) cursor to 410.
  net::QueryPager stale(exchange, kAllEntities, 2);
  ASSERT_TRUE(stale.next_page().ok());
  ASSERT_FALSE(stale.done());
  const std::string doc = R"({"prefix": {"ex": "http://example.org/"},
                              "entity": {"ex:late": {}}})";
  auto put = client.put("/api/v0/documents/late", doc);
  ASSERT_TRUE(put.ok());
  ASSERT_EQ(put.value().status, 201);
  auto gone = stale.next_page();
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.error().to_string().find("410"), std::string::npos);

  // cursors_expired surfaces the invalidation; writev_batches counts the
  // gathered head+body sends every response above rode on.
  health = client.get("/api/v0/health");
  ASSERT_TRUE(health.ok());
  health_body = json::parse(health.value().body).take();
  EXPECT_GE(health_body.find("cursors_expired")->as_int(), 1);
  EXPECT_EQ(health_body.find("cursors_open")->as_int(), 0);
  EXPECT_GT(server.stats().writev_batches, 0u);

  server.stop();
}

}  // namespace
}  // namespace provml::graphstore
