package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Spark delivers listener events on its own thread, through a bus that is
  * `private[spark]`, hence this package: waiting until it is empty is how a
  * test knows it has seen every event of the jobs it ran.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
