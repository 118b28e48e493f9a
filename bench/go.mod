module github.com/detector-net/detector/bench

go 1.22

require github.com/detector-net/detector v0.0.0

replace github.com/detector-net/detector => ../
