package repro.core

/** Two exact pruners the suites drive the searchers with. */
object TestPruners {

  /** Sequential, never-pruning pruner: PDXearch with it visits every
    * dimension of every vector, the same work as a PDX linear scan.
    */
  final case class NeverPrune(d: Int) extends Pruner {
    val name = "linear"
    def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
      val query: Array[Float] = q
      def order(means: Array[Float]): Array[Int] = null
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float =
        Float.NegativeInfinity
    }
  }

  /** Exact partial-distance pruner with sequential access — the simplest
    * lower bound (§2.3: "the partially computed distance itself").
    */
  final case class PartialDistance(d: Int) extends Pruner {
    val name = "partial-seq"
    def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
      val query: Array[Float] = q
      def order(means: Array[Float]): Array[Int] = null
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = partial
    }
  }
}
