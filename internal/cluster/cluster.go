// Package cluster turns the single-process codecompd serving stack into
// an N-node sharded service. It provides the four pieces a cluster
// needs and nothing the single-node path doesn't already have:
//
//   - a consistent-hash ring (ring.go): virtual nodes, a configurable
//     replication factor, and generation-stamped epochs. Rings are
//     immutable values swapped atomically, so an in-flight request
//     resolves its whole replica set against one placement and can
//     never observe a half-applied rebalance;
//   - a node (node.go, nodehttp.go), the one serving node type:
//     cmd/codecompd is a Node with flags around it. One romserver.Server
//     behind the full serving HTTP API, optional write-through disk
//     persistence (store.go) so a restarted node recovers its
//     registered images without re-registration, and peer cache-fill —
//     a local miss asks the
//     image's replica peers' hot caches over a compact /internal API
//     before paying for a decompression, with every filled block
//     re-verified against the local integrity sidecar;
//   - a router (router.go): the thin proxy tier. It places images on
//     the ring, fans registrations out to all replicas, serves block
//     reads with request hedging (a second replica is tried after a
//     p99-derived delay), ejects nodes from placement using the same
//     faultlab health state machine images use (romserver.HealthTracker),
//     probes and restores them, rebalances on node join/leave, and
//     aggregates per-node stats;
//   - an in-process harness (harness.go): real listeners, real HTTP,
//     kill/restart of individual nodes — the substrate for the loadgen
//     -cluster chaos drill and the package's own tests.
//
// The shared HTTP client for the /images + /blocks API lives in the
// cluster/client subpackage and is used by the router, by peer
// cache-fill and by cmd/loadgen.
package cluster
