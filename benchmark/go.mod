module pass/benchmark

go 1.24

require pass v0.0.0

replace pass => ../
