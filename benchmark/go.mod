module tetrium/benchmark

go 1.22

require tetrium v0.0.0

replace tetrium => ../
