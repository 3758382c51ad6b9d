// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the product's `go build ./...`; the module
// path sits under emcast/ so it may import emcast/internal/... through
// the replace below.
module emcast/bench

go 1.24

require emcast v0.0.0

replace emcast => ../
