"""Identity-keyed lifelong memory for full-duplex audiovisual dialog streams.

The package is organized around the live loop in `runtime`: token streams
(`stream`) are watched by a polling identity tracker (`verification`), query
markers in the monologue channel trigger cross-user retrieval (`retrieval`),
and completed stream chunks roll into per-user long-term memory (`sessions`,
`pipeline`, `store`) through schema-validated backend calls (`backends`).
`harness` and the `duplexmem` CLI synthesize scenarios and reproduce the
metric suites. The package itself exports no names: import them from these
modules.
"""
