module leaksig/bench

go 1.24

require leaksig v0.0.0

replace leaksig => ../
