module selfgo/benchmark

go 1.22

require selfgo v0.0.0

replace selfgo => ../
