module github.com/wsn-tools/vn2/benchmark

go 1.22

require github.com/wsn-tools/vn2 v0.0.0

replace github.com/wsn-tools/vn2 => ../
