module Tcp = Tcp
module Apps = Apps
module Memory = Memory
