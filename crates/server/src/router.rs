//! The request router: one declarative endpoint table — method, path,
//! handler — that drives dispatch, the 404 listing, and the `Allow` header
//! on 405s, so an endpoint is added in exactly one place.

use crate::http::{Request, Response};
use crate::stats::ServerStats;
use crate::AnalysisBackend;
use std::sync::atomic::{AtomicBool, Ordering};

/// The JSON endpoints `chora serve` exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/analyze` — full analysis report of the `.imp` body.
    Analyze,
    /// `POST /v1/batch` — JSON array of programs, analyzed in one round
    /// trip; the response array is index-aligned with the request.
    Batch,
    /// `POST /v1/complexity` — Table 1 view of the `.imp` body.
    Complexity,
    /// `GET /v1/healthz` — liveness probe.
    Healthz,
    /// `GET /v1/stats` — request timings and cache counters.
    Stats,
    /// `GET /v1/metrics` — the telemetry registry in Prometheus text
    /// exposition format.
    Metrics,
    /// `POST /v1/shutdown` — graceful drain-and-exit.
    Shutdown,
}

/// Everything a handler may touch: the injected analysis backend, the
/// request accounting, and the server's shutdown flag.
pub struct Ctx<'a> {
    pub backend: &'a dyn AnalysisBackend,
    pub stats: &'a ServerStats,
    pub shutdown: &'a AtomicBool,
}

/// An endpoint handler: a well-formed request in, a response out.
pub type Handler = fn(&Request, &Ctx<'_>) -> Response;

/// One row of the endpoint table.
#[derive(Debug)]
pub struct Route {
    pub method: &'static str,
    pub path: &'static str,
    pub endpoint: Endpoint,
    pub handler: Handler,
}

/// The endpoint table.  Dispatch, `Endpoint::{path,method,all}`, the 404
/// endpoint listing, and the `Allow` header of 405s are all derived from
/// these rows.
pub static ROUTES: [Route; 7] = [
    Route {
        method: "POST",
        path: "/v1/analyze",
        endpoint: Endpoint::Analyze,
        handler: analyze,
    },
    Route {
        method: "POST",
        path: "/v1/batch",
        endpoint: Endpoint::Batch,
        handler: batch,
    },
    Route {
        method: "POST",
        path: "/v1/complexity",
        endpoint: Endpoint::Complexity,
        handler: complexity,
    },
    Route {
        method: "GET",
        path: "/v1/healthz",
        endpoint: Endpoint::Healthz,
        handler: healthz,
    },
    Route {
        method: "GET",
        path: "/v1/stats",
        endpoint: Endpoint::Stats,
        handler: stats,
    },
    Route {
        method: "GET",
        path: "/v1/metrics",
        endpoint: Endpoint::Metrics,
        handler: metrics,
    },
    Route {
        method: "POST",
        path: "/v1/shutdown",
        endpoint: Endpoint::Shutdown,
        handler: shutdown,
    },
];

impl Endpoint {
    fn route(self) -> &'static Route {
        ROUTES
            .iter()
            .find(|r| r.endpoint == self)
            .expect("every endpoint has a table row")
    }

    /// The canonical path of the endpoint.
    pub fn path(self) -> &'static str {
        self.route().path
    }

    /// The only method the endpoint answers.
    pub fn method(self) -> &'static str {
        self.route().method
    }

    /// All endpoints, in table order (for usage messages).
    pub fn all() -> impl Iterator<Item = Endpoint> {
        ROUTES.iter().map(|r| r.endpoint)
    }

    /// Resolves an endpoint from its CLI name (`chora request <endpoint>`).
    pub fn from_name(name: &str) -> Option<Endpoint> {
        Endpoint::all().find(|e| e.path().trim_start_matches("/v1/") == name)
    }
}

/// Routes a request line onto its table row, or produces the matching
/// 404/405 JSON error response (the 405 carries an `Allow` header built
/// from the rows sharing the path).
pub fn route(method: &str, path: &str) -> Result<&'static Route, Response> {
    if let Some(route) = ROUTES.iter().find(|r| r.path == path && r.method == method) {
        return Ok(route);
    }
    let allow: Vec<&str> = ROUTES
        .iter()
        .filter(|r| r.path == path)
        .map(|r| r.method)
        .collect();
    if allow.is_empty() {
        let paths: Vec<&str> = ROUTES.iter().map(|r| r.path).collect();
        return Err(Response::error(
            404,
            &format!("no such endpoint `{path}`; available: {}", paths.join(", ")),
        ));
    }
    let allow = allow.join(", ");
    Err(
        Response::error(405, &format!("{path} expects {allow}, got {method}"))
            .with_header("Allow", allow),
    )
}

fn healthz(_request: &Request, ctx: &Ctx<'_>) -> Response {
    Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"uptime_ms\": {:.3}}}\n",
            ctx.stats.uptime_ms()
        ),
    )
}

fn stats(_request: &Request, ctx: &Ctx<'_>) -> Response {
    ctx.backend.sync_metrics();
    Response::json(
        200,
        ctx.stats
            .to_json(&ctx.backend.cache_counters(), &ctx.backend.fm_counters()),
    )
}

fn metrics(_request: &Request, ctx: &Ctx<'_>) -> Response {
    // Let the backend publish its latest cache/driver counters into the
    // registry, then render everything the process has registered.
    ctx.backend.sync_metrics();
    Response {
        status: 200,
        body: chora_telemetry::metrics::registry().render_prometheus(),
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        headers: Vec::new(),
    }
}

fn shutdown(_request: &Request, ctx: &Ctx<'_>) -> Response {
    ctx.shutdown.store(true, Ordering::SeqCst);
    Response::json(200, "{\"ok\": true, \"draining\": true}\n")
}

fn analyze(request: &Request, ctx: &Ctx<'_>) -> Response {
    body_endpoint(request, |source| {
        ctx.backend.analyze(&request.query, source)
    })
}

fn complexity(request: &Request, ctx: &Ctx<'_>) -> Response {
    body_endpoint(request, |source| {
        ctx.backend.complexity(&request.query, source)
    })
}

fn batch(request: &Request, ctx: &Ctx<'_>) -> Response {
    body_endpoint(request, |body| ctx.backend.batch(&request.query, body))
}

/// The shared shape of the analysis endpoints: UTF-8 body in, backend
/// result out, errors as the uniform JSON envelope.
fn body_endpoint(request: &Request, run: impl FnOnce(&str) -> Result<String, String>) -> Response {
    let source = match request.body_utf8() {
        Ok(source) => source,
        Err(e) => return Response::error(e.status, &e.message),
    };
    match run(source) {
        Ok(body) => Response::json(200, body),
        Err(message) => Response::error(400, &message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_every_endpoint_by_method_and_path() {
        for endpoint in Endpoint::all() {
            let route = route(endpoint.method(), endpoint.path()).expect("routes");
            assert_eq!(route.endpoint, endpoint);
        }
    }

    #[test]
    fn wrong_method_is_405_with_allow_unknown_path_is_404() {
        let err = route("GET", "/v1/analyze").unwrap_err();
        assert_eq!(err.status, 405);
        assert_eq!(err.headers, vec![("Allow", "POST".to_string())]);
        let err = route("POST", "/v1/healthz").unwrap_err();
        assert_eq!(err.status, 405);
        assert_eq!(err.headers, vec![("Allow", "GET".to_string())]);
        let err = route("GET", "/nope").unwrap_err();
        assert_eq!(err.status, 404);
        assert!(err.headers.is_empty());
        assert!(err.body.contains("/v1/batch"), "{}", err.body);
    }

    #[test]
    fn endpoint_names_resolve() {
        assert_eq!(Endpoint::from_name("analyze"), Some(Endpoint::Analyze));
        assert_eq!(Endpoint::from_name("batch"), Some(Endpoint::Batch));
        assert_eq!(Endpoint::from_name("stats"), Some(Endpoint::Stats));
        assert_eq!(Endpoint::from_name("metrics"), Some(Endpoint::Metrics));
        assert_eq!(Endpoint::from_name("bogus"), None);
    }
}
