module sherman/benchmark

go 1.24

require sherman v0.0.0

replace sherman => ../
