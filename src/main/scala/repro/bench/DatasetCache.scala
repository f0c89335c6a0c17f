package repro.bench

import scala.collection.mutable
import repro.data.VectorData
import repro.data.VectorData.{Dataset, DatasetSpec}
import repro.prune.{AdSampling, Bsa}

/** Memoized datasets and pruner search spaces. Fitting BSA's D=1536 PCA
  * basis (Jacobi) and rotating 10K vectors with it costs tens of seconds,
  * and the tables of one suite share datasets, so a process-wide cache
  * keeps the runtime sane. build.sbt forks one JVM per bench suite, so the
  * cache lives for one bench suite (or for the whole root test run, which
  * shares one JVM). Keys include the full spec so test-scale and
  * bench-scale coexist.
  */
object DatasetCache {

  private val datasets = mutable.Map.empty[DatasetSpec, Dataset]
  private val adsSpaces = mutable.Map.empty[DatasetSpec, (AdSampling, IndexedSeq[Array[Float]])]
  private val bsaSpaces = mutable.Map.empty[DatasetSpec, (Bsa, IndexedSeq[Array[Float]])]
  private val truths = mutable.Map.empty[(DatasetSpec, Int), Array[Array[Long]]]

  def dataset(spec: DatasetSpec): Dataset =
    synchronized(datasets.getOrElseUpdate(spec, VectorData.generate(spec)))

  /** ADSampling pruner (ε0 = 2.1) + the dataset rotated into its space. */
  def adsSpace(spec: DatasetSpec): (AdSampling, IndexedSeq[Array[Float]]) =
    synchronized(adsSpaces.getOrElseUpdate(spec, {
      val ds = dataset(spec)
      val pruner = new AdSampling(spec.d, seed = spec.seed * 31 + 1)
      (pruner, pruner.transformData(ds.vectors))
    }))

  /** BSA pruner (multiplier 0.75) + the dataset in PCA space. */
  def bsaSpace(spec: DatasetSpec): (Bsa, IndexedSeq[Array[Float]]) =
    synchronized(bsaSpaces.getOrElseUpdate(spec, {
      val ds = dataset(spec)
      val pruner = Bsa.fit(ds.vectors, multiplier = 0.75, seed = spec.seed * 31 + 2)
      (pruner, pruner.transformData(ds.vectors))
    }))

  def groundTruth(spec: DatasetSpec, k: Int): Array[Array[Long]] =
    synchronized(truths.getOrElseUpdate((spec, k), {
      val ds = dataset(spec)
      VectorData.groundTruth(ds.vectors, ds.queries, k)
    }))
}
