package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Spark delivers listener events on its own thread. The bus is
  * `private[spark]`, hence this package: waiting until it is empty is the
  * only way to know every event of a finished query has been seen.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
