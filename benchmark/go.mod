// The benchmark is a module of its own, nested inside the repository's
// module path so it may import the internal packages it measures.
module github.com/epsilondb/epsilondb/benchmark

go 1.22

require github.com/epsilondb/epsilondb v0.0.0

replace github.com/epsilondb/epsilondb => ../
